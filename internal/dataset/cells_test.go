package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iqb/internal/stats"
)

// cellsWorld fills a store with three datasets over two countries, their
// states and counties. Counties get different record counts, so under a
// small cutover some cells promote and some stay exact, and a scope can
// mix both. Ookla records carry no loss, like the real dataset.
func cellsWorld(t *testing.T, o Options) *Store {
	t.Helper()
	s := NewStoreWith(o)
	src := rand.New(rand.NewSource(61))
	var batch []Record
	for c, country := range []string{"XA", "XB"} {
		for st := 1; st <= 2; st++ {
			for co := 1; co <= 3; co++ {
				region := fmt.Sprintf("%s-%02d-%03d", country, st, co)
				for d, ds := range []string{"ndt", "cloudflare", "ookla"} {
					n := 3 + 9*co + 5*d + 7*c
					for i := 0; i < n; i++ {
						r := NewRecord(fmt.Sprintf("%s-%d", region, i), ds, region, t0)
						r.SetValue(Download, math.Exp(src.NormFloat64()+4))
						r.SetValue(Upload, math.Exp(src.NormFloat64()+2))
						r.SetValue(Latency, 5+src.ExpFloat64()*30)
						if ds != "ookla" {
							loss := 0.0
							if src.Intn(3) > 0 {
								loss = src.Float64() * 0.05
							}
							r.SetValue(Loss, loss)
						}
						batch = append(batch, r)
					}
				}
			}
		}
	}
	if err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	return s
}

// cellQueries is every (dataset, metric, percentile) query the scoring
// path and the store's own callers can ask, plus datasets that match
// nothing.
func cellQueries() []CellQuery {
	var qs []CellQuery
	for _, ds := range []string{"", "ndt", "cloudflare", "ookla", "absent"} {
		for _, m := range AllMetrics() {
			for _, q := range []float64{0, 5, 50, 95, 100} {
				qs = append(qs, CellQuery{Dataset: ds, Metric: m, Q: q})
			}
		}
	}
	return qs
}

// TestAggregateCellsMatchesAggregateCount: answering every query in one
// walk of the cell index gives each query exactly what AggregateCount
// gives it alone, over country, state and county scopes, for stores whose
// cells are all exact and for stores where some have promoted.
func TestAggregateCellsMatchesAggregateCount(t *testing.T) {
	prefixes := []string{"", "XA", "XB", "XA-01", "XB-02", "XA-01-001", "XB-02-003", "XC"}
	for _, o := range []Options{{}, {SketchCutover: 30}, {SketchCutover: 30, Shards: 3}} {
		s := cellsWorld(t, o)
		qs := cellQueries()
		for _, prefix := range prefixes {
			// AggregateCells ignores the filter's Dataset and HasMetric.
			got := s.AggregateCells(Filter{RegionPrefix: prefix, Dataset: "ookla", HasMetric: []Metric{Loss}}, qs)
			if len(got) != len(qs) {
				t.Fatalf("%d answers for %d queries", len(got), len(qs))
			}
			for i, q := range qs {
				f := Filter{Dataset: q.Dataset, RegionPrefix: prefix, HasMetric: []Metric{q.Metric}}
				v, n, err := s.AggregateCount(f, q.Metric, q.Q)
				a := got[i]
				if (a.Err == nil) != (err == nil) || errors.Is(a.Err, stats.ErrNoData) != errors.Is(err, stats.ErrNoData) {
					t.Fatalf("cutover %d prefix %q %+v: err %v, AggregateCount err %v", o.SketchCutover, prefix, q, a.Err, err)
				}
				if math.Float64bits(a.Value) != math.Float64bits(v) || a.Count != n {
					t.Fatalf("cutover %d prefix %q %+v: (%v, %d), AggregateCount (%v, %d)", o.SketchCutover, prefix, q, a.Value, a.Count, v, n)
				}
				if prefix == "XC" || q.Dataset == "absent" || (q.Dataset == "ookla" && q.Metric == Loss) {
					if !errors.Is(a.Err, stats.ErrNoData) {
						t.Fatalf("prefix %q %+v: err %v, want ErrNoData", prefix, q, a.Err)
					}
				} else if a.Err != nil {
					t.Fatalf("prefix %q %+v: %v", prefix, q, a.Err)
				}
			}
		}
	}
}

// TestAggregateCellsMatchesScan checks the cell answers against an
// oracle that never touches the cells: the record values of the scope,
// taken exactly while every contributing (dataset, region, metric) cell
// is at or below the cutover, and through one DDSketch over all of them
// once any has promoted.
func TestAggregateCellsMatchesScan(t *testing.T) {
	const cutover = 30
	for _, o := range []Options{{}, {SketchCutover: cutover}} {
		s := cellsWorld(t, o)
		qs := cellQueries()
		for _, prefix := range []string{"", "XA", "XA-02", "XB-01-002"} {
			got := s.AggregateCells(Filter{RegionPrefix: prefix}, qs)
			for i, q := range qs {
				if got[i].Err != nil {
					continue
				}
				cells := map[string]int{}
				var vals []float64
				for _, r := range s.Select(Filter{Dataset: q.Dataset, RegionPrefix: prefix}) {
					if v, ok := r.Value(q.Metric); ok {
						vals = append(vals, v)
						cells[r.Dataset+"/"+r.Region]++
					}
				}
				promoted := false
				for _, n := range cells {
					promoted = promoted || (o.SketchCutover > 0 && n > o.SketchCutover)
				}
				want, err := stats.Percentile(vals, q.Q)
				if promoted {
					sk := stats.NewDDSketch(stats.DefaultDDSketchAlpha)
					for _, v := range vals {
						sk.Add(v)
					}
					want, err = sk.Quantile(q.Q / 100)
				}
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[i].Value) != math.Float64bits(want) || got[i].Count != len(vals) {
					t.Fatalf("cutover %d prefix %q %+v (promoted %v): (%v, %d), scan (%v, %d)",
						o.SketchCutover, prefix, q, promoted, got[i].Value, got[i].Count, want, len(vals))
				}
			}
		}
	}
}

func TestAggregateCellsErrors(t *testing.T) {
	s := cellsWorld(t, Options{})
	qs := []CellQuery{{Metric: Download, Q: 95}, {Metric: Download, Q: 101}, {Metric: Latency, Q: math.NaN()}}
	got := s.AggregateCells(Filter{RegionPrefix: "XA"}, qs)
	if got[0].Err != nil || got[0].Count == 0 {
		t.Errorf("valid query: %+v", got[0])
	}
	for _, a := range got[1:] {
		if a.Err == nil {
			t.Errorf("out-of-range percentile should error: %+v", a)
		}
	}
	for _, f := range []Filter{{ASN: 1}, {From: t0}, {To: t0}} {
		for _, a := range s.AggregateCells(f, qs[:1]) {
			if a.Err == nil {
				t.Errorf("filter %+v is not cell-indexed, want an error", f)
			}
		}
	}
	if got := s.AggregateCells(Filter{}, nil); len(got) != 0 {
		t.Errorf("no queries: %d answers", len(got))
	}
}
