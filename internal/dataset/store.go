package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iqb/internal/stats"
)

// ErrDuplicate marks (dataset, ID) uniqueness violations. Callers that
// replay a write-ahead log match it with errors.Is to recognize a batch
// that was already applied.
var ErrDuplicate = errors.New("duplicate record")

// Default store geometry. 32 shards keeps writer contention negligible
// up to several dozen cores while the fan-out cost of merge-on-read
// queries stays trivial.
const (
	DefaultShards = 32
	// DefaultSketchCutover is how many values a (dataset, region,
	// metric) cell holds exactly before promoting to a sketch. Every
	// laptop-scale experiment in this repo stays below it, so their
	// aggregates are bit-identical to a full scan; production-scale
	// cells promote and become O(buckets).
	DefaultSketchCutover = 1024

	idStripeCount = 64
)

// Options configures store geometry and the streaming aggregation path.
// The zero value selects all defaults.
type Options struct {
	// Shards is the number of lock stripes; <= 0 means DefaultShards.
	Shards int
	// SketchCutover is the per-cell exact-value budget before sketch
	// promotion; <= 0 means DefaultSketchCutover.
	SketchCutover int
	// SketchAlpha is the DDSketch relative accuracy; <= 0 means
	// stats.DefaultDDSketchAlpha.
	SketchAlpha float64
}

// Store is an in-memory measurement store, sharded for concurrent
// ingestion and indexed for region/ISP/time queries.
//
// # Architecture
//
// Records are striped over Options.Shards shards by hash(dataset,
// region); each shard has its own mutex, records slice, and region/ASN
// indexes, so writers for different regions never contend and readers
// fan out across shards and merge (sorting by a global insertion
// sequence wherever insertion order is part of the contract). A second,
// independent stripe set enforces (dataset, ID) uniqueness across the
// whole store.
//
// On top of the record shards sits a streaming aggregation index: every
// insert folds its metric values into a per-(dataset, region, metric)
// cell. Cells are exact up to Options.SketchCutover values and then
// promote to an order-independent stats.DDSketch, so Aggregate answers
// quantile queries without materializing values. Filters the cells
// cannot express (ASN, time bounds, foreign HasMetric) fall back to an
// exact scan.
//
// # Determinism
//
// Every aggregate the store serves is a pure function of the record
// multiset, never of arrival order: exact percentiles select the order
// statistics a sort would, and the sketch path uses DDSketch, whose
// bucket-count state is order-independent by construction. Concurrent
// writers — any number of them, interleaved any way — therefore produce
// a store whose Aggregate/Summary/GroupAggregate answers are
// bit-identical.
// The pipeline's fixed-seed determinism guarantee leans on this.
//
// The store is safe for concurrent use; reads never block other reads.
type Store struct {
	shards  []*shard
	stripes [idStripeCount]idStripe
	seq     atomic.Uint64
	cutover int
	alpha   float64

	// ingestMu fences writers against Quiesce: every mutation holds it
	// shared for the full validate→hooks→insert→commit sequence, so an
	// exclusive holder observes the store with no ingestion in flight —
	// in particular, never between a hook's durable tee and the matching
	// shard mutation, and never before a committed batch's commit
	// notifications have fired.
	ingestMu   sync.RWMutex
	hooks      []hookEntry
	nextHookID uint64
}

// IngestHook observes every batch that is about to enter the store —
// validated and dedup-cleared, before any shard is mutated. A non-nil
// error vetoes the batch: the store is left unchanged (including its
// dedup set) and the error is returned to the writer. The persistence
// layer uses this to tee batches durably (WAL append + fsync) ahead of
// the in-memory mutation, so an acknowledged write is always
// recoverable. Hooks must not call back into the store.
type IngestHook func(rs []Record) error

// BatchNotify observes a batch without the power to veto it. Commit
// notifications fire after every record of the batch is visible in the
// shards; abort notifications fire when a later hook in the chain
// vetoed a batch this observer had already been told about. Notify
// functions must not call back into the store.
type BatchNotify func(rs []Record)

// Hooks is one observer's set of batch callbacks. Any field may be nil.
//
// For each batch that clears validation and dedup, the store runs every
// registered observer's Ingest in registration order; the first error
// vetoes the batch, the store unwinds (Abort, in reverse order, on the
// observers that came before the vetoing one) and stays unchanged. If
// the whole chain accepts, the batch is applied to the shards and then
// every observer's Commit runs, again in registration order. The entire
// sequence happens inside the write fence, so Quiesce never observes a
// batch between its durable tee and its commit notifications.
//
// A write-ahead log registers {Ingest: tee}; a derived-result cache
// registers {Ingest: markPending, Commit: invalidate, Abort: unmark} —
// the two coexist on one store, which the old single-slot SetIngestHook
// could not express.
type Hooks struct {
	Ingest IngestHook
	Commit BatchNotify
	Abort  BatchNotify
}

// hookEntry is one registered observer, tagged for removal.
type hookEntry struct {
	id uint64
	h  Hooks
}

// NewStore returns an empty store with default options.
func NewStore() *Store { return NewStoreWith(Options{}) }

// NewStoreWith returns an empty store with explicit options.
func NewStoreWith(o Options) *Store {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	if o.SketchCutover <= 0 {
		o.SketchCutover = DefaultSketchCutover
	}
	if o.SketchAlpha <= 0 {
		o.SketchAlpha = stats.DefaultDDSketchAlpha
	}
	s := &Store{
		shards:  make([]*shard, o.Shards),
		cutover: o.SketchCutover,
		alpha:   o.SketchAlpha,
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	for i := range s.stripes {
		s.stripes[i].ids = make(map[string]struct{})
	}
	return s
}

// NumShards reports the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// AddHooks appends an observer to the hook chain and returns a function
// that removes it again. Both registration and removal wait for
// in-flight writes to drain, so after AddHooks returns every subsequent
// successful Add/AddBatch passes through the observer, and after the
// remove function returns none do. Recovery installs its WAL tee only
// after replaying, so replayed batches are not re-teed to the log they
// came from. The remove function is idempotent.
func (s *Store) AddHooks(h Hooks) (remove func()) {
	s.ingestMu.Lock()
	id := s.nextHookID
	s.nextHookID++
	s.hooks = append(s.hooks, hookEntry{id: id, h: h})
	s.ingestMu.Unlock()
	return func() {
		s.ingestMu.Lock()
		for i, e := range s.hooks {
			if e.id == id {
				s.hooks = append(s.hooks[:i], s.hooks[i+1:]...)
				break
			}
		}
		s.ingestMu.Unlock()
	}
}

// AddIngestHook registers a veto-capable pre-commit hook with no
// commit/abort notifications — the write-ahead-log shape of AddHooks.
func (s *Store) AddIngestHook(h IngestHook) (remove func()) {
	return s.AddHooks(Hooks{Ingest: h})
}

// runIngestHooks walks the chain's Ingest phase in registration order.
// On a veto it aborts, in reverse order, the observers that already
// ran, and returns the vetoing error. Callers hold ingestMu shared.
func (s *Store) runIngestHooks(rs []Record) error {
	for i, e := range s.hooks {
		if e.h.Ingest == nil {
			continue
		}
		if err := e.h.Ingest(rs); err != nil {
			// Unwind only the observers that were actually told about the
			// batch: an Ingest-less observer has no in-flight state to
			// release, and a spurious Abort could corrupt accounting it
			// keeps for other batches.
			for j := i - 1; j >= 0; j-- {
				if s.hooks[j].h.Ingest != nil && s.hooks[j].h.Abort != nil {
					s.hooks[j].h.Abort(rs)
				}
			}
			return err
		}
	}
	return nil
}

// runCommitHooks fires the chain's Commit phase in registration order,
// after every record of the batch is visible in the shards. Callers
// hold ingestMu shared, so Quiesce sees all notifications delivered.
func (s *Store) runCommitHooks(rs []Record) {
	for _, e := range s.hooks {
		if e.h.Commit != nil {
			e.h.Commit(rs)
		}
	}
}

// Quiesce runs fn while no ingestion is in flight: writers that have
// cleared the ingest hook chain have also finished mutating shards and
// delivering their commit notifications, and new writers block until
// fn returns. The persistence layer snapshots under
// Quiesce so the captured record set and the captured WAL offset name
// the same point in time. fn must not write to the store.
func (s *Store) Quiesce(fn func()) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	fn()
}

// unclaim releases (dataset, ID) reservations after a vetoed ingest.
func (s *Store) unclaim(keys []string) {
	for _, k := range keys {
		st := s.stripeFor(k)
		st.mu.Lock()
		delete(st.ids, k)
		st.mu.Unlock()
	}
}

func (s *Store) shardFor(ds, region string) *shard {
	return s.shards[fnv64a(ds, region)%uint64(len(s.shards))]
}

func (s *Store) stripeFor(key string) *idStripe {
	return &s.stripes[fnv64a(key)%idStripeCount]
}

// Add validates and inserts a record. Duplicate (dataset, ID) pairs are
// rejected.
func (s *Store) Add(r Record) error {
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	if err := r.Validate(); err != nil {
		return err
	}
	key := r.Dataset + "/" + r.ID
	st := s.stripeFor(key)
	st.mu.Lock()
	if _, dup := st.ids[key]; dup {
		st.mu.Unlock()
		return fmt.Errorf("dataset: %w %s", ErrDuplicate, key)
	}
	st.ids[key] = struct{}{}
	st.mu.Unlock()

	rs := []Record{r}
	if err := s.runIngestHooks(rs); err != nil {
		s.unclaim([]string{key})
		return fmt.Errorf("dataset: ingest hook: %w", err)
	}

	sh := s.shardFor(r.Dataset, r.Region)
	sh.mu.Lock()
	sh.insertLocked(s.seq.Add(1), r, s.cutover, s.alpha)
	sh.mu.Unlock()
	s.runCommitHooks(rs)
	return nil
}

// AddBatch validates and inserts a batch atomically with respect to
// errors: the whole batch is validated and checked for duplicates
// (against the store and within itself) before any record is stored, so
// a mid-batch failure leaves the store unchanged. If an ingest hook is
// installed it runs after the checks and before any shard mutation; a
// hook error likewise leaves the store unchanged. Records land with
// consecutive insertion sequence numbers, and each destination shard is
// locked once for the whole batch rather than per record.
func (s *Store) AddBatch(rs []Record) error {
	if len(rs) == 0 {
		return nil
	}
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	keys := make([]string, len(rs))
	seen := make(map[string]int, len(rs))
	for i, r := range rs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("dataset: record %d of %d: %w", i+1, len(rs), err)
		}
		k := r.Dataset + "/" + r.ID
		if first, dup := seen[k]; dup {
			return fmt.Errorf("dataset: record %d of %d: %w %s within batch (first at record %d)", i+1, len(rs), ErrDuplicate, k, first+1)
		}
		seen[k] = i
		keys[i] = k
	}

	// Claim every ID atomically: lock all involved stripes in sorted
	// order (deadlock-free against other batches, and against Add, which
	// holds at most one stripe), check every key, then insert every key.
	// Holding the locks for the whole check+insert means a failing batch
	// is invisible to concurrent writers — no transient reservations to
	// roll back or collide with.
	byStripe := make(map[uint64][]int)
	for i, k := range keys {
		si := fnv64a(k) % idStripeCount
		byStripe[si] = append(byStripe[si], i)
	}
	order := make([]uint64, 0, len(byStripe))
	for si := range byStripe {
		order = append(order, si)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })

	for _, si := range order {
		s.stripes[si].mu.Lock()
	}
	unlock := func() {
		for _, si := range order {
			s.stripes[si].mu.Unlock()
		}
	}
	for i, k := range keys {
		if _, dup := s.stripes[fnv64a(k)%idStripeCount].ids[k]; dup {
			unlock()
			return fmt.Errorf("dataset: record %d of %d: %w %s", i+1, len(rs), ErrDuplicate, k)
		}
	}
	for _, k := range keys {
		s.stripes[fnv64a(k)%idStripeCount].ids[k] = struct{}{}
	}
	unlock()

	// The batch is now validated and its IDs claimed, so the hook chain
	// sees exactly what the shards are about to absorb; a veto releases
	// the claims and leaves the store untouched.
	if err := s.runIngestHooks(rs); err != nil {
		s.unclaim(keys)
		return fmt.Errorf("dataset: ingest hook: %w", err)
	}

	// Sequence numbers are claimed as one contiguous block so the batch
	// keeps its internal order under Select regardless of which shard
	// each record lands in.
	base := s.seq.Add(uint64(len(rs))) - uint64(len(rs))
	byShard := make(map[*shard][]int)
	for i, r := range rs {
		sh := s.shardFor(r.Dataset, r.Region)
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, idxs := range byShard {
		sh.mu.Lock()
		for _, i := range idxs {
			sh.insertLocked(base+uint64(i)+1, rs[i], s.cutover, s.alpha)
		}
		sh.mu.Unlock()
	}
	s.runCommitHooks(rs)
	return nil
}

// AddAll inserts a batch with AddBatch semantics: the whole batch is
// validated up front and a failure leaves the store unchanged.
func (s *Store) AddAll(rs []Record) error { return s.AddBatch(rs) }

// Len returns the number of stored records.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.records)
		sh.mu.RUnlock()
	}
	return n
}

// Datasets returns the distinct dataset names present, sorted.
func (s *Store) Datasets() []string {
	counts := s.DatasetCounts()
	out := make([]string, 0, len(counts))
	for d := range counts {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// DatasetCounts returns the number of records per dataset name in
// O(shards) without scanning records.
func (s *Store) DatasetCounts() map[string]int {
	counts := map[string]int{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for d, n := range sh.byDataset {
			counts[d] += n
		}
		sh.mu.RUnlock()
	}
	return counts
}

// Regions returns the distinct region codes present, sorted.
func (s *Store) Regions() []string {
	set := map[string]bool{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for r := range sh.byRegion {
			set[r] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Filter selects records. Zero values mean "any". RegionPrefix matches a
// region code or any of its descendants (hierarchical codes share
// prefixes, "XA-01" matches "XA-01" and "XA-01-002" but not "XA-010").
type Filter struct {
	Dataset      string
	RegionPrefix string
	ASN          uint32
	From, To     time.Time // [From, To); zero means unbounded
	HasMetric    []Metric  // all listed metrics must be present
}

func (f Filter) matches(r *Record) bool {
	if f.Dataset != "" && r.Dataset != f.Dataset {
		return false
	}
	if f.RegionPrefix != "" && !regionMatch(f.RegionPrefix, r.Region) {
		return false
	}
	if f.ASN != 0 && r.ASN != f.ASN {
		return false
	}
	if !f.From.IsZero() && r.Time.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !r.Time.Before(f.To) {
		return false
	}
	for _, m := range f.HasMetric {
		if !r.Has(m) {
			return false
		}
	}
	return true
}

// regionMatch reports whether code is prefix itself or a hierarchical
// descendant of it.
func regionMatch(prefix, code string) bool {
	if code == prefix {
		return true
	}
	return strings.HasPrefix(code, prefix) && len(code) > len(prefix) && code[len(prefix)] == '-'
}

// sketchServable reports whether the filter can be answered from the
// (dataset, region, metric) sketch cells for metric m: cells carry no
// ASN, time, or cross-metric presence information.
func sketchServable(f Filter, m Metric) bool {
	if !f.CellIndexed() {
		return false
	}
	switch len(f.HasMetric) {
	case 0:
		return true
	case 1:
		return f.HasMetric[0] == m
	default:
		return false
	}
}

// CellIndexed reports whether the per-(dataset, region, metric) cell
// index can answer aggregates over f without a record scan: the cells
// carry no ASN or time information.
func (f Filter) CellIndexed() bool {
	return f.ASN == 0 && f.From.IsZero() && f.To.IsZero()
}

// gather passes every stored record matching f to keep, shard by shard
// under each shard's read lock: the one shard walk behind Select and
// Gather.
func (s *Store) gather(f Filter, keep func(*seqRecord)) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, idx := range sh.candidatesLocked(f) {
			if sr := &sh.records[idx]; f.matches(&sr.rec) {
				keep(sr)
			}
		}
		sh.mu.RUnlock()
	}
}

// Select returns a copy of all records matching f, in insertion order.
func (s *Store) Select(f Filter) []Record {
	var hits []*seqRecord
	s.gather(f, func(sr *seqRecord) { hits = append(hits, sr) })
	slices.SortFunc(hits, func(a, b *seqRecord) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Record, len(hits))
	for i, sr := range hits {
		out[i] = sr.rec
	}
	return out
}

// Gather returns every record matching f in shard order, which is not
// insertion order: Select without the copies and the merge by sequence
// number, for callers whose answer does not depend on record order, such
// as every (dataset, metric) cell and every window of a windowed score.
// The records are the store's own, which never change once stored;
// callers must not modify them.
func (s *Store) Gather(f Filter) []*Record {
	var out []*Record
	s.gather(f, func(sr *seqRecord) { out = append(out, &sr.rec) })
	return out
}

// Count returns the number of records matching f without copying them.
func (s *Store) Count(f Filter) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, idx := range sh.candidatesLocked(f) {
			if f.matches(&sh.records[idx].rec) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Values extracts the metric values of all records matching f, in
// insertion order.
func (s *Store) Values(f Filter, m Metric) []float64 {
	type seqVal struct {
		seq uint64
		v   float64
	}
	var hits []seqVal
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, idx := range sh.candidatesLocked(f) {
			sr := &sh.records[idx]
			if !f.matches(&sr.rec) {
				continue
			}
			if v, ok := sr.rec.Value(m); ok {
				hits = append(hits, seqVal{sr.seq, v})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].seq < hits[j].seq })
	out := make([]float64, len(hits))
	for i, h := range hits {
		out[i] = h.v
	}
	return out
}

// Aggregate computes the q-th percentile (q in [0, 100]) of metric m
// over records matching f. It returns stats.ErrNoData when nothing
// matches. Filters the streaming index can express are answered from
// the per-(dataset, region, metric) cells — exactly while every cell is
// below the sketch cutover, within the sketch's relative-error bound
// once promoted — without materializing values; other filters fall back
// to an exact scan.
func (s *Store) Aggregate(f Filter, m Metric, q float64) (float64, error) {
	v, _, err := s.AggregateCount(f, m, q)
	return v, err
}

// AggregateCount is Aggregate plus the number of metric values the
// answer was computed over.
func (s *Store) AggregateCount(f Filter, m Metric, q float64) (float64, int, error) {
	if q < 0 || q > 100 || math.IsNaN(q) {
		return 0, 0, fmt.Errorf("dataset: percentile %v out of [0,100]", q)
	}
	if !sketchServable(f, m) {
		vals := s.Values(f, m)
		v, err := stats.PercentileInPlace(vals, q, stats.Linear)
		return v, len(vals), err
	}
	a := s.AggregateCells(f, []CellQuery{{Dataset: f.Dataset, Metric: m, Q: q}})[0]
	return a.Value, a.Count, a.Err
}

// CellQuery names one aggregate of a cell-indexed filter: the Q-th
// percentile (Q in [0, 100]) of Metric over the records of Dataset (""
// for every dataset).
type CellQuery struct {
	Dataset string
	Metric  Metric
	Q       float64
}

// CellAnswer is AggregateCount's result for one CellQuery. Err is
// stats.ErrNoData when no record carries the metric.
type CellAnswer struct {
	Value float64
	Count int
	Err   error
}

// AggregateCells answers every query over the region scope of f in one
// walk of the per-(dataset, region, metric) cell index. f must be
// cell-indexed (Filter.CellIndexed); its Dataset and HasMetric are
// ignored, since each query names its own. Answer i equals
// AggregateCount(f, qs[i].Metric, qs[i].Q) with f.Dataset = qs[i].Dataset
// and f.HasMetric = [qs[i].Metric], bit for bit: the walk feeds each
// query's cells to its own accumulator, and an accumulator's answer does
// not depend on the order its cells arrive in.
func (s *Store) AggregateCells(f Filter, qs []CellQuery) []CellAnswer {
	out := make([]CellAnswer, len(qs))
	if !f.CellIndexed() {
		for i := range out {
			out[i].Err = fmt.Errorf("dataset: filter is not cell-indexed (ASN or time bounds set)")
		}
		return out
	}
	accs := make([]cellAccum, len(qs))
	for i, q := range qs {
		if q.Q < 0 || q.Q > 100 || math.IsNaN(q.Q) {
			out[i].Err = fmt.Errorf("dataset: percentile %v out of [0,100]", q.Q)
		}
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, c := range sh.cells {
			if f.RegionPrefix != "" && !regionMatch(f.RegionPrefix, k.region) {
				continue
			}
			for i := range qs {
				q := &qs[i]
				if q.Metric != k.metric || (q.Dataset != "" && q.Dataset != k.dataset) || out[i].Err != nil {
					continue
				}
				//iqbvet:ignore maprange cellAccum is order-independent: exact percentiles select an order statistic, sketch merges are commutative
				if err := accs[i].add(c, s.alpha); err != nil {
					out[i].Err = err
				}
			}
		}
		sh.mu.RUnlock()
	}
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

// Summary computes descriptive statistics of metric m over records
// matching f. It always scans exactly.
func (s *Store) Summary(f Filter, m Metric) (stats.Summary, error) {
	return stats.Summarize(s.Values(f, m))
}

// GroupKey selects how GroupAggregate buckets records.
type GroupKey int

// Grouping dimensions.
const (
	ByRegion GroupKey = iota
	ByDataset
	ByASN
)

// Group is one bucket of a grouped aggregation.
type Group struct {
	Key   string
	Count int
	Value float64
}

// GroupAggregate buckets records matching f by key and computes the q-th
// percentile of m within each bucket. Buckets with no metric values are
// omitted. Results are sorted by key. The scan fans out across shards
// without a global lock.
//
// ByRegion and ByDataset group-bys with sketch-servable filters are
// answered from the per-(dataset, region, metric) cell index without
// materializing per-bucket value slices: the cost scales with the number
// of cells, not records. ByASN and filters the cells cannot express
// (ASN, time bounds, foreign HasMetric) fall back to the exact scan,
// mirroring Aggregate.
func (s *Store) GroupAggregate(f Filter, key GroupKey, m Metric, q float64) ([]Group, error) {
	switch key {
	case ByRegion, ByDataset, ByASN:
	default:
		return nil, fmt.Errorf("dataset: unknown group key %d", key)
	}
	if q < 0 || q > 100 || math.IsNaN(q) {
		return nil, fmt.Errorf("dataset: percentile %v out of [0,100]", q)
	}
	if (key == ByRegion || key == ByDataset) && sketchServable(f, m) {
		return s.groupAggregateCells(f, key, m, q)
	}
	buckets := map[string][]float64{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, idx := range sh.candidatesLocked(f) {
			r := &sh.records[idx].rec
			if !f.matches(r) {
				continue
			}
			v, ok := r.Value(m)
			if !ok {
				continue
			}
			var k string
			switch key {
			case ByRegion:
				k = r.Region
			case ByDataset:
				k = r.Dataset
			case ByASN:
				k = fmt.Sprintf("AS%d", r.ASN)
			}
			buckets[k] = append(buckets[k], v)
		}
		sh.mu.RUnlock()
	}
	out := make([]Group, 0, len(buckets))
	for k, vals := range buckets {
		p, err := stats.PercentileInPlace(vals, q, stats.Linear)
		if err != nil {
			return nil, err
		}
		out = append(out, Group{Key: k, Count: len(vals), Value: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// groupAggregateCells answers a ByRegion/ByDataset group-by straight
// from the cell index: cells matching the filter are merged per bucket —
// exact values while every contributing cell is below the cutover
// (answering bit-identically to the record scan), DDSketch merges once
// cells have promoted.
func (s *Store) groupAggregateCells(f Filter, key GroupKey, m Metric, q float64) ([]Group, error) {
	buckets := map[string]*cellAccum{}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, c := range sh.cells {
			if k.metric != m {
				continue
			}
			if f.Dataset != "" && k.dataset != f.Dataset {
				continue
			}
			if f.RegionPrefix != "" && !regionMatch(f.RegionPrefix, k.region) {
				continue
			}
			gk := k.region
			if key == ByDataset {
				gk = k.dataset
			}
			b := buckets[gk]
			if b == nil {
				b = &cellAccum{}
				buckets[gk] = b
			}
			if err := b.add(c, s.alpha); err != nil {
				sh.mu.RUnlock()
				return nil, err
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]Group, 0, len(buckets))
	for gk, b := range buckets {
		v, err := b.quantile(q/100, q)
		if err != nil {
			return nil, err
		}
		out = append(out, Group{Key: gk, Count: b.count, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// TimeBounds returns the earliest and latest record timestamps matching
// f. ok is false when nothing matches.
func (s *Store) TimeBounds(f Filter) (min, max time.Time, ok bool) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, idx := range sh.candidatesLocked(f) {
			r := &sh.records[idx].rec
			if !f.matches(r) {
				continue
			}
			if !ok || r.Time.Before(min) {
				min = r.Time
			}
			if !ok || r.Time.After(max) {
				max = r.Time
			}
			ok = true
		}
		sh.mu.RUnlock()
	}
	return min, max, ok
}
