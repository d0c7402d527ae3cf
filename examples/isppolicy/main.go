// ISP policy what-if: how much does a rural county's IQB score move if
// its DSL subscribers are migrated to fiber?
//
// This is the "actionable insights for decision-makers" use the paper
// motivates: the framework is run twice on the same county — once with
// the current access mix, once with a hypothetical post-investment mix —
// and the score delta quantifies the intervention.
//
// Run: go run ./examples/isppolicy
package main

import (
	"fmt"
	"log"
	"time"

	"iqb/internal/cfspeed"
	"iqb/internal/dataset"
	"iqb/internal/iqb"
	"iqb/internal/ndt"
	"iqb/internal/netem"
	"iqb/internal/ookla"
	"iqb/internal/rng"
)

// simulateCounty runs nSubs subscribers drawn from the mix through all
// three measurement systems at evening load and returns the county's
// score under both quality bars (high, minimum).
func simulateCounty(label string, mix netem.TechMix, nSubs int, seed uint64) (iqb.Score, iqb.Score, error) {
	cfg := iqb.DefaultConfig()
	store := dataset.NewStore()
	pub := ookla.NewPublisher()
	profiles := netem.DefaultProfiles()
	root := rng.New(seed).Fork(label)
	base := time.Date(2025, 6, 2, 19, 0, 0, 0, time.UTC)

	for i := 0; i < nSubs; i++ {
		src := root.Fork(fmt.Sprintf("sub-%d", i))
		tech := mix.Draw(src)
		path := netem.DrawPath(profiles[tech], 1, src)
		rho := netem.Diurnal(19 + src.Range(0, 4)) // evening tests
		at := base.Add(time.Duration(i) * time.Minute)

		nres, err := ndt.Simulate(path, rho, src)
		if err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}
		rec, err := nres.ToRecord(fmt.Sprintf("ndt-%d", i), "POLICY", 64500, tech.String(), at)
		if err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}
		if err := store.Add(rec); err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}

		cres, err := cfspeed.Simulate(path, rho, src)
		if err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}
		crec, err := cres.ToRecord(fmt.Sprintf("cf-%d", i), "POLICY", 64500, tech.String(), at)
		if err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}
		if err := store.Add(crec); err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}

		ores, err := ookla.Simulate(path, rho, src)
		if err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}
		if err := pub.Add(ookla.RawSample{Region: "POLICY", ASN: 64500, Time: at, Result: ores}); err != nil {
			return iqb.Score{}, iqb.Score{}, err
		}
	}
	aggs, err := pub.Publish(1)
	if err != nil {
		return iqb.Score{}, iqb.Score{}, err
	}
	if err := store.AddBatch(aggs); err != nil {
		return iqb.Score{}, iqb.Score{}, err
	}
	high, err := cfg.ScoreRegion(store, "POLICY", time.Time{}, time.Time{})
	if err != nil {
		return iqb.Score{}, iqb.Score{}, err
	}
	minCfg := cfg
	minCfg.Quality = iqb.MinimumQuality
	minScore, err := minCfg.ScoreRegion(store, "POLICY", time.Time{}, time.Time{})
	if err != nil {
		return iqb.Score{}, iqb.Score{}, err
	}
	return high, minScore, nil
}

func main() {
	const subscribers = 60

	// Today: a DSL/satellite-heavy rural county.
	before := netem.TechMix{
		netem.Fiber: 0.05, netem.Cable: 0.15, netem.DSL: 0.35,
		netem.LTE: 0.15, netem.WISP: 0.15, netem.SatGEO: 0.15,
	}
	// After the buildout: DSL and satellite subscribers moved to fiber.
	after := netem.TechMix{
		netem.Fiber: 0.55, netem.Cable: 0.15,
		netem.LTE: 0.15, netem.WISP: 0.15,
	}
	for _, mix := range []netem.TechMix{before, after} {
		if err := mix.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	scoreBefore, minBefore, err := simulateCounty("before", before, subscribers, 42)
	if err != nil {
		log.Fatal(err)
	}
	scoreAfter, minAfter, err := simulateCounty("after", after, subscribers, 42)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("policy what-if: migrate rural DSL + satellite subscribers to fiber")
	fmt.Printf("\n  high-quality bar:    before %.3f (%s)  after %.3f (%s)  delta %+.3f\n",
		scoreBefore.IQB, scoreBefore.Grade, scoreAfter.IQB, scoreAfter.Grade, scoreAfter.IQB-scoreBefore.IQB)
	fmt.Printf("  minimum-quality bar: before %.3f (%s)  after %.3f (%s)  delta %+.3f\n\n",
		minBefore.IQB, minBefore.Grade, minAfter.IQB, minAfter.Grade, minAfter.IQB-minBefore.IQB)

	fmt.Println("per-use-case movement:")
	for _, u := range iqb.AllUseCases() {
		b, _ := scoreBefore.UseCaseByName(u)
		a, _ := scoreAfter.UseCaseByName(u)
		marker := ""
		if a.Score-b.Score >= 0.25 {
			marker = "  <-- biggest winners"
		}
		fmt.Printf("  %-20s %.3f -> %.3f (%+.3f)%s\n", u.Title(), b.Score, a.Score, a.Score-b.Score, marker)
	}
	fmt.Println("\nthe framework turns 'we laid fiber' into per-use-case score movement a regulator can read")
}
