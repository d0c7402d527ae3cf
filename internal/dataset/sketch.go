package dataset

import (
	"fmt"
	"math"
	"sync"

	"iqb/internal/stats"
)

// sketcherStripes is the number of lock stripes a Sketcher spreads its
// cells over — the same geometry argument as the store's shard count:
// enough stripes that concurrent writers for different (dataset, region)
// pairs essentially never contend.
const sketcherStripes = 32

// Sketcher is the memory-bounded ingestion path: instead of retaining
// raw records it folds each metric into a per-(dataset, region, metric)
// cell, the same cell design the store's streaming aggregation index
// uses — exact up to a cutover, then promoted to an order-independent
// stats.DDSketch. Region hierarchy queries merge the cells of matching
// regions, so percentile aggregates remain available at any level
// without raw data — the mode a production IQB deployment ingesting
// millions of tests per day would run in.
//
// # Determinism
//
// Every answer a Sketcher gives is a pure function of the ingested value
// multiset, never of arrival order: exact percentiles select the order
// statistics a sort would, and promoted cells are DDSketches, whose
// bucket-count state is order-independent by construction. Quantile is
// stable across repeated calls, and two sketchers built from the same
// records — in any order, across any number of workers, joined by Merge
// in any order — answer bit-identically. RunStreaming's fixed-seed
// determinism contract leans on this.
//
// Cells are lock-striped by hash(dataset, region), so concurrent
// ingestion for different regions never contends; a shared-nothing
// pipeline can instead run one Sketcher per worker and Merge at the
// join, touching no locks at all on the hot path.
type Sketcher struct {
	cutover int
	alpha   float64
	stripes [sketcherStripes]sketchStripe
}

// sketchStripe is one lock stripe of a Sketcher's cell map.
type sketchStripe struct {
	mu    sync.RWMutex
	cells map[cellKey]*metricCell
}

// NewSketcher returns a sketcher with the given DDSketch relative
// accuracy (values outside (0, 1) select stats.DefaultDDSketchAlpha) and
// the store's default exact-cell cutover.
func NewSketcher(alpha float64) *Sketcher {
	return NewSketcherWith(Options{SketchAlpha: alpha})
}

// NewSketcherWith returns a sketcher with explicit cell options. Only
// SketchCutover and SketchAlpha are consulted; the zero value selects
// all defaults.
func NewSketcherWith(o Options) *Sketcher {
	if o.SketchCutover <= 0 {
		o.SketchCutover = DefaultSketchCutover
	}
	if o.SketchAlpha <= 0 || o.SketchAlpha >= 1 || math.IsNaN(o.SketchAlpha) {
		o.SketchAlpha = stats.DefaultDDSketchAlpha
	}
	s := &Sketcher{cutover: o.SketchCutover, alpha: o.SketchAlpha}
	for i := range s.stripes {
		s.stripes[i].cells = make(map[cellKey]*metricCell)
	}
	return s
}

// Alpha returns the DDSketch relative accuracy the sketcher's cells
// promote to.
func (s *Sketcher) Alpha() float64 { return s.alpha }

func (s *Sketcher) stripeFor(ds, region string) *sketchStripe {
	return &s.stripes[fnv64a(ds, region)%sketcherStripes]
}

// Ingest folds one record into the sketch. The record is validated. All
// of a record's metrics land in the same stripe, so ingestion takes one
// lock per record.
func (s *Sketcher) Ingest(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	st := s.stripeFor(r.Dataset, r.Region)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, m := range AllMetrics() {
		v, ok := r.Value(m)
		if !ok {
			continue
		}
		k := cellKey{dataset: r.Dataset, region: r.Region, metric: m}
		c := st.cells[k]
		if c == nil {
			c = &metricCell{}
			st.cells[k] = c
		}
		c.add(v, s.cutover, s.alpha)
	}
	return nil
}

// IngestAll folds a batch, stopping at the first error.
func (s *Sketcher) IngestAll(rs []Record) error {
	for i, r := range rs {
		if err := s.Ingest(r); err != nil {
			return fmt.Errorf("dataset: sketching record %d of %d: %w", i+1, len(rs), err)
		}
	}
	return nil
}

// Cells reports the number of (dataset, region, metric) sketch cells.
func (s *Sketcher) Cells() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += len(st.cells)
		st.mu.RUnlock()
	}
	return n
}

// Merge folds every cell of other into s; other is unchanged. Both
// sketchers must share the same cell geometry (cutover and alpha), so
// merged cells are bit-identical to cells built by a single sketcher
// ingesting the union of the records. Merge may run concurrently with
// Ingest and Quantile on either sketcher, but two sketchers must not be
// merged into each other concurrently.
func (s *Sketcher) Merge(other *Sketcher) error {
	if other == nil || other == s {
		return nil
	}
	if other.alpha != s.alpha || other.cutover != s.cutover {
		return fmt.Errorf("dataset: merging sketchers with different cell geometry (alpha %v/%v, cutover %d/%d)",
			s.alpha, other.alpha, s.cutover, other.cutover)
	}
	// Both sketchers stripe by the same hash over the same stripe count,
	// so every cell of other.stripes[i] lands in s.stripes[i]: one lock
	// pair per stripe instead of per cell.
	for i := range other.stripes {
		ost, st := &other.stripes[i], &s.stripes[i]
		ost.mu.RLock()
		st.mu.Lock()
		for k, oc := range ost.cells {
			c := st.cells[k]
			if c == nil {
				c = &metricCell{}
				st.cells[k] = c
			}
			if err := c.merge(oc, s.cutover, s.alpha); err != nil {
				st.mu.Unlock()
				ost.mu.RUnlock()
				return err
			}
		}
		st.mu.Unlock()
		ost.mu.RUnlock()
	}
	return nil
}

// Quantile returns the q-quantile (q in [0,1]) of metric m for dataset
// ds across the region prefix, along with the total sample count it was
// computed from. Cells of all regions under the prefix are merged; while
// every contributing cell is still exact the answer is bit-identical to
// a full scan, and once cells have promoted it is within the DDSketch
// relative-error bound. Repeated calls over the same ingested data
// return identical values.
func (s *Sketcher) Quantile(ds, regionPrefix string, m Metric, q float64) (float64, int, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, 0, fmt.Errorf("dataset: quantile %v out of [0,1]", q)
	}
	var acc cellAccum
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for k, c := range st.cells {
			if k.dataset != ds || k.metric != m {
				continue
			}
			if regionPrefix != "" && !regionMatch(regionPrefix, k.region) {
				continue
			}
			//iqbvet:ignore maprange cellAccum is order-independent: exact percentiles select an order statistic, sketch merges are commutative
			if err := acc.add(c, s.alpha); err != nil {
				st.mu.RUnlock()
				return 0, 0, err
			}
		}
		st.mu.RUnlock()
	}
	if acc.count == 0 {
		return 0, 0, stats.ErrNoData
	}
	v, err := acc.quantile(q, q*100)
	if err != nil {
		return 0, 0, err
	}
	return v, acc.count, nil
}
