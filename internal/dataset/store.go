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

	// idStripeBits is log2 of the number of (dataset, ID) stripes.
	idStripeBits  = 6
	idStripeCount = 1 << idStripeBits
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
// region); each shard has its own mutex, rows, and region/ASN indexes,
// so writers for different regions never contend and readers fan out
// across shards and merge (sorting by a global insertion sequence
// wherever insertion order is part of the contract). A second,
// independent stripe set enforces (dataset, ID) uniqueness across the
// whole store and keeps every ID's bytes. A shard stores each record
// as a pointer-free Row naming its strings and zone by index into the
// store's dictionary (see the package doc's "Store architecture").
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
	dict    *dictionary
	stripes [idStripeCount]idStripe

	// ingestMu fences writers against Quiesce: every mutation holds it
	// shared for the full validate→hooks→insert→commit sequence, so an
	// exclusive holder observes the store with no ingestion in flight —
	// in particular, never between a hook's durable tee and the matching
	// shard mutation, and never before a committed batch's commit
	// notifications have fired.
	ingestMu   sync.RWMutex
	hooks      []hookEntry
	nextHookID uint64
	orderMu    sync.Mutex // makes Ingest hooks + sequence reservation one ordered step
	seq        uint64     // sequence numbers reserved so far
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
// batch between its durable tee and its commit notifications. Ingest
// runs one batch at a time, in the order Select returns the batches.
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
		dict:   newDictionary(),
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	for i := range s.stripes {
		s.stripes[i].arena.limit = maxArenaChunks
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

// runIngestHooks runs the chain's Ingest phase in registration order,
// then reserves the batch's sequence block; a veto aborts, in reverse
// order, the observers that already ran. Callers hold ingestMu shared.
func (s *Store) runIngestHooks(rs []Record) (uint64, error) {
	s.orderMu.Lock()
	defer s.orderMu.Unlock()
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
			return 0, err
		}
	}
	s.seq += uint64(len(rs))
	return s.seq - uint64(len(rs)), nil
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

// Add validates and inserts a record. Duplicate (dataset, ID) pairs are
// rejected. It is AddBatch of one record.
func (s *Store) Add(r Record) error { return s.AddBatch([]Record{r}) }

// AddBatch validates and inserts a batch atomically with respect to
// errors: the whole batch is validated and checked for duplicates
// (against the store and within itself) before any record is stored, so
// a mid-batch failure stores no record and claims no ID. A batch that
// fails validation or the duplicate check leaves the store unchanged. If
// an ingest hook is installed it runs after the checks and before any
// shard mutation; a hook error likewise stores and claims nothing, but
// the batch's new names stay in the dictionary and its IDs' bytes in
// their arenas, unreferenced. Records land with consecutive insertion
// sequence numbers, taken in the hook chain's ordered step, and each
// destination shard and its cell-index stripe are locked once for the
// whole batch rather than per record.
func (s *Store) AddBatch(rs []Record) error {
	if len(rs) == 0 {
		return nil
	}
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	type idKey struct{ dataset, id string }
	seen := make(map[idKey]int, len(rs))
	hashes := make([]uint64, len(rs))
	rows := make([]Row, len(rs))
	for i := range rs {
		r := &rs[i]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("dataset: record %d of %d: %w", i+1, len(rs), err)
		}
		k := idKey{r.Dataset, r.ID}
		if first, dup := seen[k]; dup {
			return fmt.Errorf("dataset: record %d of %d: %w %s/%s within batch (first at record %d)", i+1, len(rs), ErrDuplicate, r.Dataset, r.ID, first+1)
		}
		seen[k] = i
		// The low idStripeBits pick the ID stripe, the bits above them
		// the slot in the stripe's table.
		hashes[i] = fnv64a(r.Dataset, r.ID)
		rows[i] = newRow(r)
	}
	if err := s.claim(rs, rows, hashes); err != nil {
		return err
	}

	// The batch is now validated and its IDs claimed, so the hook chain
	// sees exactly what the shards are about to absorb; a veto releases
	// the claims and leaves the store untouched. The sequence block is
	// contiguous, so the batch keeps its internal order under Select.
	base, err := s.runIngestHooks(rs)
	if err != nil {
		for i := range rs {
			st := &s.stripes[hashes[i]%idStripeCount]
			st.mu.Lock()
			st.release(hashes[i], rows[i].ds, rs[i].ID)
			st.mu.Unlock()
		}
		return fmt.Errorf("dataset: ingest hook: %w", err)
	}

	byShard := make(map[uint64][]int)
	groupByStripe(byShard, rs, len(s.shards))
	for si, idxs := range byShard {
		sh := s.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			rows[i].seq = base + uint64(i) + 1
			sh.insertLocked(&rows[i])
		}
		sh.mu.Unlock()
		s.cells.fold(si, rs, idxs)
	}
	s.runCommitHooks(rs)
	return nil
}

// claim checks every (dataset, ID) of rs against the store and, when
// none is held, interns the batch's names into rows and claims every ID,
// setting each row's ID reference. It locks every involved stripe in
// ascending order (deadlock-free against other batches) for the whole
// check and claim, so a failing batch is invisible to concurrent
// writers: there are no transient reservations to roll back or collide
// with. The check only looks names up: a dataset the dictionary has
// never held owns no stored ID, so a duplicate batch interns nothing.
func (s *Store) claim(rs []Record, rows []Row, hashes []uint64) error {
	var involved [idStripeCount]bool
	for _, h := range hashes {
		involved[h%idStripeCount] = true
	}
	for si := range involved {
		if involved[si] {
			s.stripes[si].mu.Lock()
		}
	}
	defer func() {
		for si := range involved {
			if involved[si] {
				s.stripes[si].mu.Unlock()
			}
		}
	}()
	var last lastName
	for i := range rs {
		ds, _ := last.resolve(rs[i].Dataset, s.dict.find)
		if ds != noSym && s.stripes[hashes[i]%idStripeCount].has(hashes[i], ds, rs[i].ID) {
			return fmt.Errorf("dataset: record %d of %d: %w %s/%s", i+1, len(rs), ErrDuplicate, rs[i].Dataset, rs[i].ID)
		}
	}
	if err := s.dict.fill(rows, rs); err != nil {
		return err
	}
	names := s.dict.nameList()
	for i := range rs {
		si := hashes[i] % idStripeCount
		ref, err := s.stripes[si].claim(hashes[i], rows[i].ds, rs[i].ID, names)
		if err != nil {
			for j := 0; j < i; j++ {
				s.stripes[hashes[j]%idStripeCount].release(hashes[j], rows[j].ds, rs[j].ID)
			}
			return err
		}
		rows[i].id = si<<32 | uint64(ref)
	}
	return nil
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.n
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
		names := s.dict.nameList()
		for d, n := range sh.byDataset {
			counts[names[d]] += n
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
		names := s.dict.nameList()
		for r := range sh.byRegion {
			set[names[r]] = true
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

// query is a Filter compiled against a store's dictionary: the dataset
// as its sym, the time bounds as Unix seconds and nanoseconds.
type query struct {
	dict             *dictionary
	hasDS            bool
	ds               sym
	region           string
	regionSym        sym
	asn              uint32
	hasFrom, hasTo   bool
	fromSec, toSec   int64
	fromNsec, toNsec uint32
}

func (s *Store) compile(f Filter) *query {
	q := &query{dict: s.dict, region: f.RegionPrefix, asn: f.ASN}
	if f.Dataset != "" {
		q.hasDS, q.ds = true, s.dict.lookup(f.Dataset)
	}
	if f.RegionPrefix != "" {
		q.regionSym = s.dict.lookup(f.RegionPrefix)
	}
	if !f.From.IsZero() {
		q.hasFrom, q.fromSec, q.fromNsec = true, f.From.Unix(), uint32(f.From.Nanosecond())
	}
	if !f.To.IsZero() {
		q.hasTo, q.toSec, q.toNsec = true, f.To.Unix(), uint32(f.To.Nanosecond())
	}
	return q
}

// matches checks everything but the region, which the shard scan
// settles.
func (q *query) matches(r *Row) bool {
	return (!q.hasDS || r.ds == q.ds) &&
		(q.asn == 0 || r.asn == q.asn) &&
		(!q.hasFrom || !r.before(q.fromSec, q.fromNsec)) &&
		(!q.hasTo || r.before(q.toSec, q.toNsec))
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

// gather passes every stored row matching f to keep, shard by shard
// under each shard's read lock: the one shard walk behind Select,
// Gather, Values and TimeBounds.
func (s *Store) gather(f Filter, keep func(*Row)) {
	q := s.compile(f)
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.scanLocked(q, keep)
		sh.mu.RUnlock()
	}
}

// Select returns a copy of all records matching f, in insertion order.
// A time comes back Equal to the one stored, with the same zone name
// and offset (see the package doc's zone rule).
func (s *Store) Select(f Filter) []Record {
	var hits []*Row
	s.gather(f, func(r *Row) { hits = append(hits, r) })
	slices.SortFunc(hits, func(a, b *Row) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Record, len(hits))
	s.records(out, hits)
	return out
}

// records rebuilds out[i] from rows[i]. The rows' IDs share one string.
func (s *Store) records(out []Record, rows []*Row) {
	names, zones := s.dict.nameList(), s.dict.zoneList()
	var ids strings.Builder
	n := 0
	for _, r := range rows {
		n += len(s.id(r))
	}
	ids.Grow(n)
	for _, r := range rows {
		ids.Write(s.id(r))
	}
	all, off := ids.String(), 0
	for i, r := range rows {
		n := len(s.id(r))
		out[i] = Record{
			ID:           all[off : off+n],
			Time:         rowTime(r, zones),
			Dataset:      names[r.ds],
			Region:       names[r.region],
			ASN:          r.asn,
			Tech:         names[r.tech],
			DownloadMbps: r.vals[Download],
			UploadMbps:   r.vals[Upload],
			LatencyMS:    r.vals[Latency],
			LossFrac:     r.vals[Loss],
		}
		off += n
	}
}

// id returns the bytes of a stored row's ID, in its stripe's arena.
func (s *Store) id(r *Row) []byte {
	_, id := s.stripes[r.id>>32].arena.entry(uint32(r.id))
	return id
}

// View is what Gather returns: the matching rows, and which of the
// datasets Gather was asked about each row belongs to.
type View struct {
	// Rows are the store's own, which never change once stored; callers
	// must not modify them.
	Rows []*Row
	// syms[i] is the dictionary index of the i-th dataset name given to
	// Gather, or noSym.
	syms []sym
}

// DatasetIndex returns the position of r's dataset among the names
// given to Gather, or -1 when it is none of them.
func (v *View) DatasetIndex(r *Row) int {
	for i, y := range v.syms {
		if y == r.ds {
			return i
		}
	}
	return -1
}

// Gather returns a view of every record matching f in shard order,
// which is not insertion order: Select without the copies and the
// merge by sequence number, for callers whose answer does not depend on
// record order, such as every (dataset, metric) cell and every window
// of a windowed score. The view tells rows apart by the given dataset
// names (View.DatasetIndex).
func (s *Store) Gather(f Filter, datasets []string) View {
	v := View{syms: make([]sym, len(datasets))}
	s.gather(f, func(r *Row) { v.Rows = append(v.Rows, r) })
	// Resolved after the scan: the dictionary only grows, so every
	// dataset the gathered rows carry resolves.
	for i, d := range datasets {
		v.syms[i] = s.dict.lookup(d)
	}
	return v
}

// Values extracts the metric values of all records matching f, in
// insertion order.
func (s *Store) Values(f Filter, m Metric) []float64 {
	type seqVal struct {
		seq uint64
		v   float64
	}
	var hits []seqVal
	s.gather(f, func(r *Row) {
		if v, ok := r.Value(m); ok {
			hits = append(hits, seqVal{r.seq, v})
		}
	})
	slices.SortFunc(hits, func(a, b seqVal) int { return cmp.Compare(a.seq, b.seq) })
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
// f, each in its record's zone. ok is false when nothing matches.
func (s *Store) TimeBounds(f Filter) (min, max time.Time, ok bool) {
	var lo, hi *Row
	s.gather(f, func(r *Row) {
		if lo == nil || r.before(lo.sec, lo.nsec) {
			lo = r
		}
		if hi == nil || hi.before(r.sec, r.nsec) {
			hi = r
		}
	})
	if lo == nil {
		return time.Time{}, time.Time{}, false
	}
	zones := s.dict.zoneList()
	return rowTime(lo, zones), rowTime(hi, zones), true
}
