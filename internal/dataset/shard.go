package dataset

import (
	"sort"
	"sync"

	"iqb/internal/stats"
)

// The store is lock-striped two ways: records live in shards keyed by
// hash(dataset, region) so concurrent writers for different regions
// never contend, and (dataset, ID) uniqueness is enforced by a separate
// set of ID stripes keyed by hash(dataset, ID) — a record's dedup key
// and its shard key disagree on purpose, because duplicates must be
// caught across regions while records should cluster by region for
// query locality.

// fnv64a is the 64-bit FNV-1a hash of the given strings separated by a
// NUL byte, inlined to keep the per-record hashing allocation-free.
func fnv64a(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for pi, p := range parts {
		if pi > 0 {
			// Mix a separator byte so ("ab","c") and ("a","bc") differ.
			h ^= 1
			h *= prime64
		}
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
	}
	return h
}

// seqRecord is a stored record tagged with its global insertion sequence
// number, so merge-on-read iteration can reconstruct insertion order
// across shards.
type seqRecord struct {
	seq uint64
	rec Record
}

// shard is one lock stripe of the store: a records slice with
// shard-local region/ASN indexes and the sketch cells of every
// (dataset, region) pair that hashes here.
type shard struct {
	mu        sync.RWMutex
	records   []seqRecord
	byRegion  map[string][]int
	byASN     map[uint32][]int
	byDataset map[string]int
	cells     map[cellKey]*metricCell
}

func newShard() *shard {
	return &shard{
		byRegion:  make(map[string][]int),
		byASN:     make(map[uint32][]int),
		byDataset: make(map[string]int),
		cells:     make(map[cellKey]*metricCell),
	}
}

// insertLocked appends a validated, dedup-cleared record. The caller
// holds sh.mu. Records are append-only: a stored record is never
// modified, so a pointer to one taken under the read lock (Select,
// Gather) stays valid and unchanged after the lock is released.
func (sh *shard) insertLocked(seq uint64, r Record, cutover int, alpha float64) {
	idx := len(sh.records)
	sh.records = append(sh.records, seqRecord{seq: seq, rec: r})
	sh.byRegion[r.Region] = append(sh.byRegion[r.Region], idx)
	if r.ASN != 0 {
		sh.byASN[r.ASN] = append(sh.byASN[r.ASN], idx)
	}
	sh.byDataset[r.Dataset]++
	for _, m := range AllMetrics() {
		v, ok := r.Value(m)
		if !ok {
			continue
		}
		k := cellKey{dataset: r.Dataset, region: r.Region, metric: m}
		c := sh.cells[k]
		if c == nil {
			c = &metricCell{}
			sh.cells[k] = c
		}
		c.add(v, cutover, alpha)
	}
}

// candidatesLocked narrows the shard-local scan using indexes where the
// filter allows. The caller holds at least a read lock.
func (sh *shard) candidatesLocked(f Filter) []int {
	if f.ASN != 0 {
		return sh.byASN[f.ASN]
	}
	if f.RegionPrefix != "" {
		if exact, ok := sh.byRegion[f.RegionPrefix]; ok && !sh.hasDescendantsLocked(f.RegionPrefix) {
			return exact
		}
		var out []int
		for region, idxs := range sh.byRegion {
			if regionMatch(f.RegionPrefix, region) {
				out = append(out, idxs...)
			}
		}
		sort.Ints(out)
		return out
	}
	all := make([]int, len(sh.records))
	for i := range all {
		all[i] = i
	}
	return all
}

func (sh *shard) hasDescendantsLocked(prefix string) bool {
	for region := range sh.byRegion {
		if region != prefix && regionMatch(prefix, region) {
			return true
		}
	}
	return false
}

// cellKey addresses one streaming-aggregation cell. Because the shard
// key is hash(dataset, region), every cell lives in exactly one shard.
type cellKey struct {
	dataset string
	region  string
	metric  Metric
}

// metricCell is the streaming aggregation state of one
// (dataset, region, metric) triple. It is exact until it has seen more
// than the store's cutover, then promotes to a DDSketch: small cells
// (the common case for county-level scoring) answer quantiles
// bit-identically to a full scan, while cells at production scale stay
// O(buckets) instead of O(records). Promotion folds the exact values
// into the sketch, which is order-independent, so the promoted state is
// a pure function of the value multiset.
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
		c.promote(alpha)
	}
}

// promote folds the exact values into a fresh sketch and drops them.
func (c *metricCell) promote(alpha float64) {
	c.sketch = stats.NewDDSketch(alpha)
	for _, x := range c.exact {
		c.sketch.Add(x)
	}
	c.exact = nil
}

// merge folds other into c; other is unchanged. The result is the cell a
// single writer would have built from the union of both value multisets:
// still exact if the combined count fits under the cutover, otherwise a
// sketch over every value — in either case a pure function of the
// multiset, so merging per-worker cells in any order reproduces
// single-writer state exactly.
func (c *metricCell) merge(other *metricCell, cutover int, alpha float64) error {
	if other == nil || other.count == 0 {
		return nil
	}
	c.count += other.count
	if c.sketch == nil && other.sketch == nil {
		c.exact = append(c.exact, other.exact...)
		if len(c.exact) > cutover {
			c.promote(alpha)
		}
		return nil
	}
	if c.sketch == nil {
		c.promote(alpha)
	}
	if other.sketch != nil {
		return c.sketch.Merge(other.sketch)
	}
	for _, x := range other.exact {
		c.sketch.Add(x)
	}
	return nil
}

// cellAccum accumulates matching metric cells for one quantile answer:
// exact values while every contributing cell is below the cutover, a
// merged DDSketch as soon as any has promoted. It is the shared read
// side of the cell design, used by Store.AggregateCells,
// Store.groupAggregateCells, and Sketcher.Quantile. The exact values are
// the accumulator's own copies, which quantile reorders.
type cellAccum struct {
	count  int
	exact  []float64
	merged *stats.DDSketch
}

// add folds one cell in; the caller holds the cell's stripe lock.
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
		return stats.PercentileInPlace(a.exact, pct, stats.Linear)
	}
	for _, x := range a.exact {
		a.merged.Add(x)
	}
	return a.merged.Quantile(q01)
}

// idStripe is one stripe of the global (dataset, ID) uniqueness set.
type idStripe struct {
	mu  sync.Mutex
	ids map[string]struct{}
}
