package dataset

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"iqb/internal/rng"
	"iqb/internal/stats"
)

// smallSketcher returns a sketcher whose cells promote past cutover
// values, so a few thousand records exercise the DDSketch path.
func smallSketcher(cutover int) *Sketcher {
	return newSketcher(cutover, stats.DefaultDDSketchAlpha)
}

// quantile asks sk for the q-th percentile of one (dataset, metric) over
// a region scope.
func quantile(sk *Sketcher, ds, prefix string, m Metric, q float64) (float64, int, error) {
	a := sk.AggregateCells(prefix, []CellQuery{{Dataset: ds, Metric: m, Q: q}})[0]
	return a.Value, a.Count, a.Err
}

func TestSketcherQuantileMatchesExact(t *testing.T) {
	sk := NewSketcher()
	src := rng.New(5)
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]Record, 20000)
	vals := map[Metric][]float64{}
	for i := range recs {
		r := NewRecord(uniq(i), "ndt", "XA-01-001", ts)
		r.SetValue(Download, src.LogNormalFromMoments(100, 0.9))
		r.SetValue(Latency, src.LogNormalFromMoments(40, 0.6))
		vals[Download] = append(vals[Download], r.DownloadMbps)
		vals[Latency] = append(vals[Latency], r.LatencyMS)
		recs[i] = r
	}
	if err := sk.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{Download, Latency} {
		for _, q := range []float64{5, 50, 95} {
			approx, n, err := quantile(sk, "ndt", "XA-01-001", m, q)
			if err != nil {
				t.Fatal(err)
			}
			if n != 20000 {
				t.Errorf("sample count = %d", n)
			}
			exact, err := stats.Percentile(vals[m], q)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(approx-exact) / exact; rel > 0.05 {
				t.Errorf("%v q=%v: sketch %v vs exact %v (rel %v)", m, q, approx, exact, rel)
			}
		}
	}
}

func TestSketcherRegionHierarchyMerge(t *testing.T) {
	sk := NewSketcher()
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	var recs []Record
	for _, c := range []struct {
		id, region string
		v          float64
	}{{"a", "XA-01-001", 10}, {"b", "XA-01-002", 20}, {"c", "XA-02-001", 30}} {
		r := NewRecord(c.id, "ndt", c.region, ts)
		r.SetValue(Download, c.v)
		recs = append(recs, r)
	}
	if err := sk.Ingest(recs); err != nil {
		t.Fatal(err)
	}

	// County-level: one cell.
	v, n, err := quantile(sk, "ndt", "XA-01-001", Download, 50)
	if err != nil || n != 1 || v != 10 {
		t.Errorf("county quantile = %v, %d, %v", v, n, err)
	}
	// State-level: merges two counties.
	v, n, err = quantile(sk, "ndt", "XA-01", Download, 50)
	if err != nil || n != 2 || v != 15 {
		t.Errorf("state merge = %v, %d, %v", v, n, err)
	}
	// Country-level: all three.
	_, n, err = quantile(sk, "ndt", "XA", Download, 50)
	if err != nil || n != 3 {
		t.Errorf("country merge n = %d, %v", n, err)
	}
	// Empty prefix matches everything.
	_, n, err = quantile(sk, "ndt", "", Download, 50)
	if err != nil || n != 3 {
		t.Errorf("unscoped n = %d, %v", n, err)
	}
}

func TestSketcherErrors(t *testing.T) {
	sk := NewSketcher()
	if _, _, err := quantile(sk, "ndt", "XA", Download, 50); !errors.Is(err, stats.ErrNoData) {
		t.Errorf("empty sketch should be ErrNoData, got %v", err)
	}
	// A batch with one invalid record is rejected whole.
	good := NewRecord("a", "ndt", "XA", time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC))
	good.SetValue(Download, 1)
	if err := sk.Ingest([]Record{good, {}}); err == nil {
		t.Error("batch with an invalid record should error")
	}
	if sk.Cells() != 0 {
		t.Errorf("rejected batch left %d cells", sk.Cells())
	}
}

func TestSketcherCells(t *testing.T) {
	sk := NewSketcher()
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	r := NewRecord("a", "ndt", "XA", ts)
	r.SetValue(Download, 1)
	r.SetValue(Latency, 2)
	if err := sk.Ingest([]Record{r}); err != nil {
		t.Fatal(err)
	}
	if sk.Cells() != 2 {
		t.Errorf("cells = %d, want 2 (one per present metric)", sk.Cells())
	}
}

// sketchRecords synthesizes n records spread over datasets and regions,
// some of whose cells will cross a small cutover and promote.
func sketchRecords(n int) []Record {
	src := rng.New(11)
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]Record, n)
	for i := range recs {
		ds := []string{"ndt", "cloudflare"}[i%2]
		// Decorrelated from the dataset parity so both datasets cover
		// both states.
		region := "XA-0" + string(rune('1'+(i/2)%2)) + "-00" + string(rune('1'+i%3))
		r := NewRecord(uniq(i), ds, region, ts)
		r.SetValue(Download, src.LogNormalFromMoments(100, 0.8))
		r.SetValue(Latency, src.LogNormalFromMoments(40, 0.5))
		recs[i] = r
	}
	return recs
}

// TestSketcherQuantileStable pins half the determinism contract: the
// same sketcher must answer the same quantile query identically on
// repeated calls, for exact and promoted cells alike.
func TestSketcherQuantileStable(t *testing.T) {
	sk := smallSketcher(64)
	if err := sk.Ingest(sketchRecords(2000)); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"", "XA-01", "XA-02-001"} {
		for _, q := range []float64{5, 50, 95} {
			first, n0, err := quantile(sk, "ndt", prefix, Download, q)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				v, n, err := quantile(sk, "ndt", prefix, Download, q)
				if err != nil || v != first || n != n0 {
					t.Fatalf("prefix %q q=%v call %d: (%v, %d, %v) != first (%v, %d)",
						prefix, q, i, v, n, err, first, n0)
				}
			}
		}
	}
}

// TestSketcherIngestOrderIndependent pins the other half: sketchers fed
// the same records in opposite orders and different batch shapes answer
// bit-identically.
func TestSketcherIngestOrderIndependent(t *testing.T) {
	recs := sketchRecords(2000)
	fwd, bwd := smallSketcher(64), smallSketcher(64)
	if err := fwd.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	rev := slices.Clone(recs)
	slices.Reverse(rev)
	for i := range rev {
		if err := bwd.Ingest(rev[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 50, 95, 100} {
		fv, fn, ferr := quantile(fwd, "ndt", "XA", Download, q)
		bv, bn, berr := quantile(bwd, "ndt", "XA", Download, q)
		if ferr != nil || berr != nil || math.Float64bits(fv) != math.Float64bits(bv) || fn != bn {
			t.Errorf("q=%v: forward (%v, %d, %v) vs backward (%v, %d, %v)", q, fv, fn, ferr, bv, bn, berr)
		}
	}
}

// BenchmarkSketcherIngest measures one-record batches, where the
// per-batch work weighs most.
func BenchmarkSketcherIngest(b *testing.B) {
	sk := NewSketcher()
	src := rng.New(1)
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	rs := []Record{NewRecord("x", "ndt", "XA-01-001", ts)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs[0].SetValue(Download, src.Float64()*100)
		rs[0].SetValue(Latency, src.Float64()*100)
		if err := sk.Ingest(rs); err != nil {
			b.Fatal(err)
		}
	}
}
