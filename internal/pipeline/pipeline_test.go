package pipeline

import (
	"context"
	"math"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/iqb"
	"iqb/internal/rng"
)

// smallSpec keeps pipeline tests fast.
func smallSpec() Spec {
	s := DefaultSpec()
	s.Geo.States = 2
	s.Geo.CountiesPer = 2
	s.TestsPerCounty = 25
	s.Days = 3
	s.OoklaMinGroup = 2
	return s
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Days = 0 },
		func(s *Spec) { s.TestsPerCounty = 0 },
		func(s *Spec) { s.Start = time.Time{} },
		func(s *Spec) { s.ISPQualitySpread = 1 },
	}
	for i, mut := range cases {
		s := DefaultSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestBuildWorld(t *testing.T) {
	w, err := BuildWorld(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.DB.Regions(geo.County)) != 4 {
		t.Error("world geography wrong size")
	}
	for asn, q := range w.ISPQuality {
		if q < 0.75 || q > 1.25 {
			t.Errorf("ISP %d quality %v out of spread", asn, q)
		}
	}
	bad := smallSpec()
	bad.Days = 0
	if _, err := BuildWorld(bad); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestDrawSubscriber(t *testing.T) {
	w, err := BuildWorld(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	county := w.DB.Regions(geo.County)[0]
	for i := 0; i < 50; i++ {
		sub, err := w.DrawSubscriber(county, src)
		if err != nil {
			t.Fatal(err)
		}
		if sub.Region != county {
			t.Errorf("subscriber region = %s", sub.Region)
		}
		if err := sub.Path.Validate(); err != nil {
			t.Errorf("subscriber path invalid: %v", err)
		}
		if _, ok := w.ISPQuality[sub.ASN]; !ok {
			t.Errorf("subscriber ASN %d unknown", sub.ASN)
		}
	}
	if _, err := w.DrawSubscriber("nowhere", src); err == nil {
		t.Error("unknown county should error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() == 0 {
		t.Fatal("no records produced")
	}
	// All three datasets must be present.
	for _, name := range []string{"ndt", "cloudflare", "ookla"} {
		if res.Counts[name] == 0 {
			t.Errorf("no %s records", name)
		}
	}
	// Ookla records are aggregates: far fewer than raw tests, no loss.
	if res.Counts["ookla"] >= res.Counts["ndt"] {
		t.Errorf("ookla aggregates (%d) should be fewer than ndt tests (%d)",
			res.Counts["ookla"], res.Counts["ndt"])
	}
	for _, rec := range res.Store.Select(dataset.Filter{Dataset: "ookla"}) {
		if rec.Has(dataset.Loss) {
			t.Fatal("ookla record carries loss")
		}
	}
	// NDT raw tests carry all four metrics.
	ndtRecs := res.Store.Select(dataset.Filter{Dataset: "ndt"})
	for _, m := range dataset.AllMetrics() {
		if !ndtRecs[0].Has(m) {
			t.Errorf("ndt record missing %v", m)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := smallSpec()
	spec.Workers = 4
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same record counts regardless of worker count.
	for name, n := range a.Counts {
		if b.Counts[name] != n {
			t.Errorf("%s count differs: %d vs %d", name, n, b.Counts[name])
		}
	}
	// And the aggregates (hence scores) must be identical.
	cfg := iqb.DefaultConfig()
	sa, err := a.ScoreAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.ScoreAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for region, s := range sa {
		if sb[region].IQB != s.IQB {
			t.Errorf("region %s IQB differs across worker counts: %v vs %v", region, s.IQB, sb[region].IQB)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smallSpec()); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestScoreAllAndRank(t *testing.T) {
	res, err := Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := iqb.DefaultConfig()
	scores, err := res.ScoreAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Country + 2 states + 4 counties.
	if len(scores) != 7 {
		t.Errorf("scored %d regions, want 7", len(scores))
	}
	for region, s := range scores {
		if s.IQB < 0 || s.IQB > 1 {
			t.Errorf("region %s IQB %v out of [0,1]", region, s.IQB)
		}
	}
	ranked, err := res.RankCounties(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 4 {
		t.Fatalf("ranked %d counties", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score.IQB > ranked[i-1].Score.IQB {
			t.Error("ranking not descending")
		}
	}
}

// TestUrbanBeatsRural is the headline shape check (experiment E4): with
// enough counties, fiber-heavy urban regions must outscore
// satellite/DSL-heavy rural ones on average.
func TestUrbanBeatsRural(t *testing.T) {
	spec := smallSpec()
	spec.Geo.States = 4
	spec.Geo.CountiesPer = 4
	spec.Geo.UrbanFraction = 0.4
	spec.TestsPerCounty = 40
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := res.RankCounties(iqb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var urbanSum, urbanN, ruralSum, ruralN float64
	for _, rs := range ranked {
		switch rs.Character {
		case geo.Urban:
			urbanSum += rs.Score.IQB
			urbanN++
		case geo.Rural:
			ruralSum += rs.Score.IQB
			ruralN++
		}
	}
	if urbanN == 0 || ruralN == 0 {
		t.Skip("seeded world lacks one character class")
	}
	if urbanSum/urbanN <= ruralSum/ruralN {
		t.Errorf("urban mean %v should beat rural mean %v",
			urbanSum/urbanN, ruralSum/ruralN)
	}
}

func TestRunStreamingEndToEnd(t *testing.T) {
	res, err := RunStreaming(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ndt", "cloudflare", "ookla"} {
		if res.Ingested[name] == 0 {
			t.Errorf("no %s records ingested", name)
		}
	}
	if res.Sketch.Cells() == 0 {
		t.Fatal("sketch is empty")
	}
	scores, err := res.ScoreAll(iqb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for region, s := range scores {
		if s.IQB < 0 || s.IQB > 1 {
			t.Errorf("region %s sketch IQB %v out of range", region, s.IQB)
		}
	}
}

// TestStreamingMatchesExact pins "streaming = the store's cell index
// without the records": RunStreaming and Run share one fan-out and fold
// the same records into the same cells, so every region scores
// bit-identically — on a spec whose cells all stay exact, and on one
// whose cells promote past the cutover to DDSketches.
func TestStreamingMatchesExact(t *testing.T) {
	promoted := smallSpec()
	promoted.TestsPerCounty = 1500
	for name, spec := range map[string]Spec{"exact cells": smallSpec(), "promoted cells": promoted} {
		exact, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := RunStreaming(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := iqb.DefaultConfig()
		exactScores, err := exact.ScoreAll(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streamScores, err := stream.ScoreAll(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(streamScores) != len(exactScores) {
			t.Fatalf("%s: %d streaming scores, %d exact", name, len(streamScores), len(exactScores))
		}
		for region, es := range exactScores {
			ss, ok := streamScores[region]
			if !ok || math.Float64bits(es.IQB) != math.Float64bits(ss.IQB) || es.Grade != ss.Grade || es.Coverage != ss.Coverage {
				t.Errorf("%s: region %s: exact (IQB %v, %s, cov %v) vs streaming (IQB %v, %s, cov %v)",
					name, region, es.IQB, es.Grade, es.Coverage, ss.IQB, ss.Grade, ss.Coverage)
			}
		}
		// Thresholds can hide a small quantile difference, so the
		// aggregates behind the scores must match bit for bit too.
		for region := range exactScores {
			ea, err := cfg.AggregateStore(exact.Store, region, time.Time{}, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			sa, err := cfg.AggregateSketcher(stream.Sketch, region)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range cfg.Datasets {
				for _, r := range d.Capabilities {
					ev, eok := ea.Get(d.Name, r)
					sv, sok := sa.Get(d.Name, r)
					if eok != sok || math.Float64bits(ev) != math.Float64bits(sv) || ea.Samples(d.Name, r) != sa.Samples(d.Name, r) {
						t.Errorf("%s: region %s %s/%v: exact (%v, %d) vs streaming (%v, %d)",
							name, region, d.Name, r, ev, ea.Samples(d.Name, r), sv, sa.Samples(d.Name, r))
					}
				}
			}
		}
	}
}

func TestRunStreamingCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStreaming(ctx, smallSpec()); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestRunStreamingInvalidSpec(t *testing.T) {
	bad := smallSpec()
	bad.Days = 0
	if _, err := RunStreaming(context.Background(), bad); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestRankISPs(t *testing.T) {
	res, err := Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := iqb.DefaultConfig()
	cfg.Quality = iqb.MinimumQuality
	ranked, err := res.RankISPs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d ISPs, want 3", len(ranked))
	}
	for i, isp := range ranked {
		if isp.Name == "" || isp.TrueQuality <= 0 {
			t.Errorf("ISP row %d incomplete: %+v", i, isp)
		}
		if i > 0 && isp.Score.IQB > ranked[i-1].Score.IQB {
			t.Error("ISP ranking not descending")
		}
	}
}
