// Package repro's root benchmark suite regenerates every paper artifact
// (Fig. 1, Fig. 2, Table 1; see PAPER.md) and the extension experiments
// of README.md (E4-E8) as testing.B benchmarks, plus micro-benchmarks for
// the hot paths of the scoring algebra and the measurement substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/experiments"
	"iqb/internal/iqb"
	"iqb/internal/ndt"
	"iqb/internal/netem"
	"iqb/internal/pipeline"
	"iqb/internal/rng"
)

// BenchmarkFig1FrameworkGraph regenerates Fig. 1 (experiment E1).
func BenchmarkFig1FrameworkGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Thresholds regenerates Fig. 2 (experiment E2).
func BenchmarkFig2Thresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Fig2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Weights regenerates Table 1 (experiment E3).
func BenchmarkTable1Weights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionalScoring runs the full E4 pipeline: synthetic country,
// three measurement systems, per-county scores.
func BenchmarkRegionalScoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Regional(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorroboration runs E5: leave-one-out dataset analysis.
func BenchmarkCorroboration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Corroboration(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregationAblation runs E6: percentile rule comparison.
func BenchmarkAggregationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Aggregation(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightSensitivity runs E7: ±1 perturbation of every Table 1
// cell.
func BenchmarkWeightSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Sensitivity(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdSweep runs E8: the gaming latency threshold sweep
// across access technologies.
func BenchmarkThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Sweep(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks: the hot paths under the experiments ---

// BenchmarkScoreAggregates measures one full equations-1-5 evaluation.
func BenchmarkScoreAggregates(b *testing.B) {
	cfg := iqb.DefaultConfig()
	agg := iqb.NewAggregates()
	for _, d := range cfg.Datasets {
		for _, r := range d.Capabilities {
			agg.Set(d.Name, r, 42, 100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ScoreAggregates(agg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateStore measures percentile aggregation over a
// 10k-record region.
func BenchmarkAggregateStore(b *testing.B) {
	cfg := iqb.DefaultConfig()
	store := dataset.NewStore()
	src := rng.New(1)
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10000; i++ {
		rec := dataset.NewRecord(itoa(i), "ndt", "XA-01-001", ts)
		rec.SetValue(dataset.Download, src.LogNormalFromMoments(100, 0.8))
		rec.SetValue(dataset.Upload, src.LogNormalFromMoments(10, 0.8))
		rec.SetValue(dataset.Latency, src.LogNormalFromMoments(40, 0.5))
		rec.SetValue(dataset.Loss, src.Float64()*0.05)
		if err := store.Add(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.AggregateStore(store, "XA-01-001", time.Time{}, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

// windowStore holds a week of tests, 1200 per dataset, in each of two
// counties of one state.
func windowStore(b *testing.B) (*dataset.Store, time.Time) {
	store := dataset.NewStore()
	src := rng.New(3)
	start := time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	for _, county := range []string{"XA-01-001", "XA-01-002"} {
		for _, ds := range []string{iqb.DatasetNDT, iqb.DatasetCloudflare, iqb.DatasetOokla} {
			for i := 0; i < 1200; i++ {
				ts := start.Add(time.Duration(src.Intn(7*24*3600)) * time.Second)
				rec := dataset.NewRecord(county+"-"+itoa(i), ds, county, ts)
				rec.SetValue(dataset.Download, src.LogNormalFromMoments(100, 0.8))
				rec.SetValue(dataset.Upload, src.LogNormalFromMoments(20, 0.8))
				rec.SetValue(dataset.Latency, src.LogNormalFromMoments(40, 0.5))
				if ds != iqb.DatasetOokla {
					rec.SetValue(dataset.Loss, src.Float64()*0.01)
				}
				if err := store.Add(rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return store, start
}

// BenchmarkScoreWindows measures a county's 7-day series of 24 h
// windows, the /v1/timeseries path.
func BenchmarkScoreWindows(b *testing.B) {
	cfg := iqb.DefaultConfig()
	store, start := windowStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ScoreWindows(store, "XA-01-001", start, start.Add(7*24*time.Hour), 24*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreRegionWindow measures one 3-day window of a state, the
// uncached /v1/score?from=&to= path.
func BenchmarkScoreRegionWindow(b *testing.B) {
	cfg := iqb.DefaultConfig()
	store, start := windowStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ScoreRegion(store, "XA-01", start.Add(24*time.Hour), start.Add(4*24*time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreRegionCells measures unbounded county, state and country
// scores, the uncached /v1/score path: one walk of the cell index answers
// all eleven (dataset, requirement) percentiles. Every county holds 1500
// tests per dataset, so its cells have promoted to sketches and the scope
// merges them.
func BenchmarkScoreRegionCells(b *testing.B) {
	cfg := iqb.DefaultConfig()
	store := dataset.NewStore()
	src := rng.New(5)
	ts := time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	var batch []dataset.Record
	for _, county := range []string{"XA-01-001", "XA-01-002", "XA-01-003", "XA-02-001", "XA-02-002", "XA-02-003"} {
		for _, ds := range []string{iqb.DatasetNDT, iqb.DatasetCloudflare, iqb.DatasetOokla} {
			for i := 0; i < 1500; i++ {
				rec := dataset.NewRecord(county+"-"+itoa(i), ds, county, ts)
				rec.SetValue(dataset.Download, src.LogNormalFromMoments(100, 0.8))
				rec.SetValue(dataset.Upload, src.LogNormalFromMoments(20, 0.8))
				rec.SetValue(dataset.Latency, src.LogNormalFromMoments(40, 0.5))
				if ds != iqb.DatasetOokla {
					rec.SetValue(dataset.Loss, src.Float64()*0.01)
				}
				batch = append(batch, rec)
			}
		}
	}
	if err := store.AddBatch(batch); err != nil {
		b.Fatal(err)
	}
	for _, scope := range []struct{ name, region string }{{"county", "XA-01-002"}, {"state", "XA-02"}, {"country", "XA"}} {
		b.Run(scope.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfg.ScoreRegion(store, scope.region, time.Time{}, time.Time{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreWindowRead compares the two ways to read the records of
// BenchmarkScoreRegionWindow's window: Select copies them and merges by
// insertion order, Gather hands out the stored records in shard order.
func BenchmarkStoreWindowRead(b *testing.B) {
	store, start := windowStore(b)
	f := dataset.Filter{RegionPrefix: "XA-01", From: start.Add(24 * time.Hour), To: start.Add(4 * 24 * time.Hour)}
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.Select(f)
		}
	})
	b.Run("gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.Gather(f)
		}
	})
}

// benchRecords synthesizes n records spread over regions and ASNs for
// store benchmarks.
func benchRecords(n int) []dataset.Record {
	src := rng.New(7)
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]dataset.Record, n)
	for i := range recs {
		region := "XA-0" + itoa(i%4+1) + "-00" + itoa(i%8+1)
		rec := dataset.NewRecord("b"+itoa(i), "ndt", region, ts)
		rec.ASN = uint32(i%5 + 64500)
		rec.SetValue(dataset.Download, src.LogNormalFromMoments(100, 0.8))
		rec.SetValue(dataset.Latency, src.LogNormalFromMoments(40, 0.5))
		recs[i] = rec
	}
	return recs
}

// BenchmarkStoreAddBatch measures batched ingestion into the sharded
// store — the pipeline's write path (workers flush in batches of 256).
func BenchmarkStoreAddBatch(b *testing.B) {
	recs := benchRecords(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh store each round; IDs are unique per store, not per round.
		store := dataset.NewStore()
		b.StartTimer()
		for lo := 0; lo < len(recs); lo += 256 {
			hi := lo + 256
			if hi > len(recs) {
				hi = len(recs)
			}
			if err := store.AddBatch(recs[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStoreAddParallel measures contended single-record ingestion
// across shards, the worst case for the old global-lock store.
func BenchmarkStoreAddParallel(b *testing.B) {
	recs := benchRecords(1 << 18)
	store := dataset.NewStore()
	var next int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if err := store.Add(recs[i%len(recs)]); err != nil && !strings.Contains(err.Error(), "duplicate") {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkStoreAggregateSketch measures a quantile served from the
// streaming sketch index (cells promoted past the cutover), versus
// BenchmarkStoreAggregateExact, the same query forced down the exact
// materialize-and-sort fallback. The gap is the streaming speedup.
func BenchmarkStoreAggregateSketch(b *testing.B) {
	store := dataset.NewStoreWith(dataset.Options{SketchCutover: 64})
	if err := store.AddBatch(benchRecords(100000)); err != nil {
		b.Fatal(err)
	}
	f := dataset.Filter{Dataset: "ndt", RegionPrefix: "XA"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Aggregate(f, dataset.Download, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAggregateExact forces the exact path for the same
// workload by filtering on a dimension the sketch cells cannot express.
func BenchmarkStoreAggregateExact(b *testing.B) {
	store := dataset.NewStoreWith(dataset.Options{SketchCutover: 64})
	recs := benchRecords(100000)
	for i := range recs {
		recs[i].ASN = 64500 // single ASN so the exact query covers everything
	}
	if err := store.AddBatch(recs); err != nil {
		b.Fatal(err)
	}
	f := dataset.Filter{Dataset: "ndt", RegionPrefix: "XA", ASN: 64500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Aggregate(f, dataset.Download, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketcherIngestParallel measures contended streaming ingestion
// into the lock-striped sketcher — the RunStreaming hot path. Records
// spread over regions land in different stripes, so writers should
// scale with cores instead of serializing on one sketch lock.
func BenchmarkSketcherIngestParallel(b *testing.B) {
	recs := benchRecords(1 << 16)
	sk := dataset.NewSketcher(0)
	var next int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if err := sk.Ingest(recs[i%len(recs)]); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkGroupAggregateCells measures a ByRegion group-by served from
// the store's cell index (cells promoted past the cutover): cost scales
// with the number of cells, not records. BenchmarkGroupAggregateScan is
// the same grouping forced down the exact record scan for contrast.
func BenchmarkGroupAggregateCells(b *testing.B) {
	store := dataset.NewStoreWith(dataset.Options{SketchCutover: 64})
	if err := store.AddBatch(benchRecords(100000)); err != nil {
		b.Fatal(err)
	}
	f := dataset.Filter{Dataset: "ndt"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.GroupAggregate(f, dataset.ByRegion, dataset.Download, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupAggregateScan forces the exact per-bucket materializing
// path for the same workload by filtering on a dimension the cells
// cannot express.
func BenchmarkGroupAggregateScan(b *testing.B) {
	store := dataset.NewStoreWith(dataset.Options{SketchCutover: 64})
	recs := benchRecords(100000)
	for i := range recs {
		recs[i].ASN = 64500 // single ASN so the exact query covers everything
	}
	if err := store.AddBatch(recs); err != nil {
		b.Fatal(err)
	}
	f := dataset.Filter{Dataset: "ndt", ASN: 64500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.GroupAggregate(f, dataset.ByRegion, dataset.Download, 95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNDTSimulate measures one simulated NDT test (the pipeline's
// dominant cost).
func BenchmarkNDTSimulate(b *testing.B) {
	path := netem.DrawPath(netem.DefaultProfiles()[netem.Cable], 1, rng.New(1))
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ndt.Simulate(path, 0.5, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSmall measures a small end-to-end world build.
func BenchmarkPipelineSmall(b *testing.B) {
	spec := pipeline.DefaultSpec()
	spec.Geo.States = 1
	spec.Geo.CountiesPer = 2
	spec.TestsPerCounty = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf []byte
	for i > 0 {
		buf = append([]byte{byte('0' + i%10)}, buf...)
		i /= 10
	}
	return string(buf)
}

// BenchmarkDatasetAgreement runs E9: cross-dataset rank correlation and
// KS distances.
func BenchmarkDatasetAgreement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Agreement(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiurnalProfile runs E10: hour-of-day score bands.
func BenchmarkDiurnalProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Diurnal(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingEquivalence runs E11: exact vs sketch scoring.
func BenchmarkStreamingEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Streaming(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStackAblation runs E12: Reno-era vs BBR-era NDT measurement.
func BenchmarkStackAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Stack(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkISPRecovery runs E13: ISP league table and quality recovery.
func BenchmarkISPRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.ISPs(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
