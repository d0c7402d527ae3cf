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

// Options configures store geometry and its cell index. The zero value
// selects all defaults.
type Options struct {
	// Shards is the number of lock stripes of both the records and the
	// cell index; <= 0 means DefaultShards.
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
// Beside the record shards sits the store's cell index, a Sketcher with
// one stripe per shard, striped by the same hash: every committed batch
// is folded into its per-(dataset, region, metric) cells inside the
// write fence, before the commit hooks fire. Cells are exact up to
// Options.SketchCutover values and then promote to an order-independent
// stats.DDSketch, so Aggregate answers quantile queries without
// materializing values. Filters the cells cannot express (ASN, time
// bounds) fall back to an exact scan.
//
// # Determinism
//
// Every aggregate the store serves is a pure function of the record
// multiset, never of arrival order: exact percentiles select the order
// statistics a sort would, and the sketch path uses DDSketch, whose
// bucket-count state is order-independent by construction. Concurrent
// writers — any number of them, interleaved any way — therefore produce
// a store whose Aggregate answers are bit-identical.
// The pipeline's fixed-seed determinism guarantee leans on this.
//
// The store is safe for concurrent use; reads never block other reads.
type Store struct {
	shards  []*shard
	cells   *Sketcher
	stripes [idStripeCount]idStripe
	seq     atomic.Uint64

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
		shards: make([]*shard, o.Shards),
		cells:  newSketcher(o.Shards, o.SketchCutover, o.SketchAlpha),
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	for i := range s.stripes {
		s.stripes[i].ids = make(map[string]struct{})
	}
	return s
}

// Sketcher returns the store's cell index, for cell-served aggregates
// such as Sketcher.AggregateCells. The store folds every committed batch
// into it; callers must only read it, or its answers stop matching the
// stored records.
func (s *Store) Sketcher() *Sketcher { return s.cells }

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

	si := fnv64a(r.Dataset, r.Region) % uint64(len(s.shards))
	sh := s.shards[si]
	sh.mu.Lock()
	sh.insertLocked(s.seq.Add(1), r)
	sh.mu.Unlock()
	s.cells.fold(si, rs, []int{0})
	s.runCommitHooks(rs)
	return nil
}

// AddBatch validates and inserts a batch atomically with respect to
// errors: the whole batch is validated and checked for duplicates
// (against the store and within itself) before any record is stored, so
// a mid-batch failure leaves the store unchanged. If an ingest hook is
// installed it runs after the checks and before any shard mutation; a
// hook error likewise leaves the store unchanged. Records land with
// consecutive insertion sequence numbers, and each destination shard and
// its cell-index stripe are locked once for the whole batch rather than
// per record.
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
	byShard := make(map[uint64][]int)
	groupByStripe(byShard, rs, len(s.shards))
	for si, idxs := range byShard {
		sh := s.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			sh.insertLocked(base+uint64(i)+1, rs[i])
		}
		sh.mu.Unlock()
		s.cells.fold(si, rs, idxs)
	}
	s.runCommitHooks(rs)
	return nil
}

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
// over records matching f, and the number of metric values it was
// computed over. It returns stats.ErrNoData when nothing matches.
// Filters the cell index can express are answered from the
// per-(dataset, region, metric) cells — exactly while every cell is
// below the sketch cutover, within the sketch's relative-error bound
// once promoted — without materializing values; other filters fall back
// to an exact scan.
func (s *Store) Aggregate(f Filter, m Metric, q float64) (float64, int, error) {
	if q < 0 || q > 100 || math.IsNaN(q) {
		return 0, 0, fmt.Errorf("dataset: percentile %v out of [0,100]", q)
	}
	if !f.CellIndexed() {
		vals := s.Values(f, m)
		v, err := stats.PercentileInPlace(vals, q, stats.Linear)
		return v, len(vals), err
	}
	a := s.cells.AggregateCells(f.RegionPrefix, []CellQuery{{Dataset: f.Dataset, Metric: m, Q: q}})[0]
	return a.Value, a.Count, a.Err
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
