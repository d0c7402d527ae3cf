package dataset

import (
	"fmt"
	"math"

	"iqb/internal/stats"
)

// Sketcher is the per-(dataset, region, metric) cell index: each metric
// value is folded into the cell of its record's (dataset, region), and
// the records themselves are not retained. Cells are exact up to a
// cutover, then promote to an order-independent stats.DDSketch, so
// percentile queries at any level of the region hierarchy merge the
// matching cells without materializing values.
//
// A Store keeps one Sketcher as its aggregation index and folds every
// stored batch into it, reading it through Store.AggregateCells;
// pipeline.RunStreaming feeds one directly, the mode a deployment
// ingesting archives too large to hold would run in. Both therefore
// answer from the same cells.
//
// A Sketcher is one cell map and is not safe for concurrent use: a
// Store guards its cells with its view lock, and RunStreaming's one
// committer is the only goroutine that feeds its sketcher.
//
// # Determinism
//
// Every answer a Sketcher gives is a pure function of the ingested value
// multiset, never of arrival order: exact percentiles select the order
// statistics a sort would, and promoted cells are DDSketches, whose
// bucket-count state is order-independent by construction. Answers are
// stable across repeated calls, and two sketchers fed the same records,
// in any order and any batches, answer bit-identically.
type Sketcher struct {
	cutover int
	alpha   float64
	cells   map[cellKey]*metricCell
}

// NewSketcher returns an empty sketcher with the store's default
// geometry: DefaultSketchCutover exact values per cell, and
// stats.DefaultDDSketchAlpha relative accuracy once promoted.
func NewSketcher() *Sketcher {
	return newSketcher(DefaultSketchCutover, stats.DefaultDDSketchAlpha)
}

// newSketcher returns an empty sketcher with validated geometry.
func newSketcher(cutover int, alpha float64) *Sketcher {
	return &Sketcher{cutover: cutover, alpha: alpha, cells: make(map[cellKey]*metricCell)}
}

// Ingest validates every record of rs and then folds the batch in. A
// batch with an invalid record is rejected whole and leaves the
// sketcher unchanged.
func (s *Sketcher) Ingest(rs []Record) error {
	for i := range rs {
		if err := rs[i].Validate(); err != nil {
			return fmt.Errorf("dataset: sketching record %d of %d: %w", i+1, len(rs), err)
		}
	}
	s.add(rs)
	return nil
}

// add folds the metric values of valid records into their cells.
func (s *Sketcher) add(rs []Record) {
	for i := range rs {
		r := &rs[i]
		for _, m := range AllMetrics() {
			v, ok := r.Value(m)
			if !ok {
				continue
			}
			k := cellKey{dataset: r.Dataset, region: r.Region, metric: m}
			c := s.cells[k]
			if c == nil {
				c = &metricCell{}
				s.cells[k] = c
			}
			c.add(v, s.cutover, s.alpha)
		}
	}
}

// Cells reports the number of (dataset, region, metric) cells.
func (s *Sketcher) Cells() int { return len(s.cells) }

// walk calls visit on every cell whose region is regionPrefix or one of
// its descendants ("" matches every region). Cells arrive in map order,
// so visit must fold them into order-independent state.
func (s *Sketcher) walk(regionPrefix string, visit func(cellKey, *metricCell)) {
	for k, c := range s.cells {
		if regionPrefix == "" || regionMatch(regionPrefix, k.region) {
			//iqbvet:ignore maprange visitors fold cells into cellAccums, which are order-independent: exact percentiles select an order statistic, sketch merges are commutative
			visit(k, c)
		}
	}
}

// CellQuery names one aggregate over a region scope: the Q-th
// percentile (Q in [0, 100]) of Metric over the records of Dataset (""
// for every dataset).
type CellQuery struct {
	Dataset string
	Metric  Metric
	Q       float64
}

// CellAnswer is the result of one CellQuery. Err is stats.ErrNoData when
// no record carries the metric.
type CellAnswer struct {
	Value float64
	Count int
	Err   error
}

// AggregateCells answers every query over the region subtree
// regionPrefix ("" for every region) in one walk of the cells. While
// every contributing cell is exact the answer is bit-identical to a
// percentile over the scope's record values; once any has promoted it is
// the merged DDSketch's, within its relative-error bound. Answer i does
// not depend on the other queries: the walk feeds each query's cells to
// its own accumulator, and an accumulator's answer does not depend on the
// order its cells arrive in.
func (s *Sketcher) AggregateCells(regionPrefix string, qs []CellQuery) []CellAnswer {
	out := make([]CellAnswer, len(qs))
	accs := make([]cellAccum, len(qs))
	for i, q := range qs {
		if q.Q < 0 || q.Q > 100 || math.IsNaN(q.Q) {
			out[i].Err = fmt.Errorf("dataset: percentile %v out of [0,100]", q.Q)
		}
	}
	s.walk(regionPrefix, func(k cellKey, c *metricCell) {
		for i := range qs {
			q := &qs[i]
			if q.Metric != k.metric || (q.Dataset != "" && q.Dataset != k.dataset) || out[i].Err != nil {
				continue
			}
			if err := accs[i].add(c, s.alpha); err != nil {
				out[i].Err = err
			}
		}
	})
	for i, q := range qs {
		switch a := &accs[i]; {
		case out[i].Err != nil:
		case a.count == 0:
			out[i].Err = stats.ErrNoData
		default:
			out[i].Value, out[i].Err = a.quantile(q.Q/100, q.Q)
			out[i].Count = a.count
		}
	}
	return out
}

// cellKey addresses one cell.
type cellKey struct {
	dataset string
	region  string
	metric  Metric
}

// metricCell is the aggregation state of one (dataset, region, metric)
// triple. It is exact until it has seen more than the cutover, then
// promotes to a DDSketch: small cells (the common case for county-level
// scoring) answer quantiles bit-identically to a full scan, while cells
// at production scale stay O(buckets) instead of O(records). Promotion
// folds the exact values into the sketch, which is order-independent, so
// the promoted state is a pure function of the value multiset.
type metricCell struct {
	count  int
	exact  []float64
	sketch *stats.DDSketch
}

func (c *metricCell) add(v float64, cutover int, alpha float64) {
	c.count++
	if c.sketch != nil {
		c.sketch.Add(v)
		return
	}
	c.exact = append(c.exact, v)
	if len(c.exact) > cutover {
		c.sketch = stats.NewDDSketch(alpha)
		for _, x := range c.exact {
			c.sketch.Add(x)
		}
		c.exact = nil
	}
}

// cellAccum accumulates matching cells for one quantile answer: exact
// values while every contributing cell is below the cutover, a merged
// DDSketch as soon as any has promoted. The exact values are the
// accumulator's own copies, which quantile reorders.
type cellAccum struct {
	count  int
	exact  []float64
	merged *stats.DDSketch
}

// add folds one cell in.
func (a *cellAccum) add(c *metricCell, alpha float64) error {
	a.count += c.count
	if c.sketch != nil {
		if a.merged == nil {
			a.merged = stats.NewDDSketch(alpha)
		}
		return a.merged.Merge(c.sketch)
	}
	a.exact = append(a.exact, c.exact...)
	return nil
}

// quantile answers after accumulation; the caller must have checked
// count > 0. The quantile arrives in both conventions — q01 in [0,1]
// and pct in [0,100] — so each path uses the caller's native form and
// no float division can drift the exact answer away from a full scan's.
func (a *cellAccum) quantile(q01, pct float64) (float64, error) {
	if a.merged == nil {
		// Every contributing cell is still exact: answer bit-identically
		// to a full scan, selecting in place on the values add copied.
		return stats.PercentileInPlace(a.exact, pct)
	}
	for _, x := range a.exact {
		a.merged.Add(x)
	}
	return a.merged.Quantile(q01)
}
