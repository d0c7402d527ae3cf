package dataset

import (
	"errors"
	"fmt"
	"math"
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

// DefaultSketchCutover is how many values a (dataset, region, metric)
// cell holds exactly before promoting to a sketch. Every laptop-scale
// experiment in this repo stays below it, so their aggregates are
// bit-identical to a full scan; production-scale cells promote and
// become O(buckets).
const DefaultSketchCutover = 1024

// Options configures the store's cell index. The zero value selects all
// defaults.
type Options struct {
	// SketchCutover is the per-cell exact-value budget before sketch
	// promotion; <= 0 means DefaultSketchCutover.
	SketchCutover int
	// SketchAlpha is the DDSketch relative accuracy; <= 0 means
	// stats.DefaultDDSketchAlpha.
	SketchAlpha float64
}

// Store is an in-memory measurement store, indexed for region/ISP/time
// queries, whose readers see every batch whole or not at all.
//
// # Architecture
//
// Records live in one append-only row log in insertion order, with
// region, ASN and dataset indexes of log positions. Each record is a
// pointer-free Row naming its strings and zone by index into the
// store's dictionary (see the package doc's "Store architecture"). One
// table of log positions enforces (dataset, ID) uniqueness across the
// whole store, and one arena keeps every ID's bytes.
//
// Beside the log sits the store's cell index, a Sketcher: every batch
// is folded into its per-(dataset, region, metric) cells together with
// its rows. Cells are exact up to Options.SketchCutover values and then
// promote to an order-independent stats.DDSketch, so Aggregate answers
// quantile queries without materializing values. Filters the cells
// cannot express (ASN, time bounds) fall back to an exact scan.
//
// The store has two locks. A batch is validated, hashed and laid out as
// rows with no lock held; then it takes one ordered step under orderMu,
// one writer at a time: the duplicate check against the store, the
// dictionary and arena work that can fail on a full index, the Ingest
// hooks (the WAL tee), the ID claims, the append of its rows and cells
// under viewMu held exclusively, and the Commit hooks. Every error
// AddBatch can return is decided before the hooks run, so a veto has
// nothing to undo. The ID table, the dictionary's zone map and the
// arena's write position are touched only in the ordered step and need
// no lock of their own. Every read holds viewMu shared for the whole
// read, so it sees each batch entirely or not at all. Quiesce and hook
// registration take orderMu, so they fall between batches. No method
// takes viewMu while holding it: a recursive read lock deadlocks once a
// writer waits.
//
// # Determinism
//
// Batches enter the store in the order their writers take the ordered
// step, and Select, Cut and the WAL a hook tees see them in that order,
// so one writer adding the same batches builds the same store and logs
// the same bytes; pipeline.Run commits its batches in job order for
// this. Every aggregate the store serves is moreover a pure function of
// the record multiset, never of insertion order: exact percentiles
// select the order statistics a sort would, and the sketch path uses
// DDSketch, whose bucket-count state is order-independent by
// construction.
//
// The store is safe for concurrent use: concurrent writers are
// serialized, and reads never block other reads.
type Store struct {
	// orderMu makes a batch's hooks and insert one ordered step, so the
	// WAL holds batches in the order Select returns them and the Commit
	// hooks fire in that order.
	orderMu    sync.Mutex
	hooks      []hookEntry
	nextHookID uint64

	// The ID table, the arena's write state and the dictionary's
	// writes are the ordered step's alone.
	ids   idTable
	arena idArena
	dict  *dictionary

	// viewMu guards rows and cells: writers hold it exclusively to add
	// a batch, readers shared for a whole read.
	viewMu sync.RWMutex
	rows   rowLog
	cells  *Sketcher
}

// IngestHook observes every batch that is about to enter the store —
// validated, dedup-cleared and with room in every index, before any row
// is stored. A non-nil error vetoes the batch: the store is left
// unchanged (including its dedup set) and the error is returned to the
// writer. The persistence
// layer uses this to tee batches durably (WAL append + fsync) ahead of
// the in-memory mutation, so an acknowledged write is always
// recoverable. Hooks must not call back into the store.
type IngestHook func(rs []Record) error

// BatchNotify observes a stored batch without the power to veto it.
// Commit notifications fire after every record of the batch is
// visible. Notify functions may read the store but must not write to
// it.
type BatchNotify func(rs []Record)

// Hooks is one observer's set of batch callbacks. Either field may be
// nil.
//
// For each batch that clears validation and dedup, the store runs every
// registered observer's Ingest in registration order; the first error
// vetoes the batch, the later observers are not run, and the store
// stays unchanged. If the whole chain accepts, the batch is stored and
// then every observer's Commit runs, again in registration order. The
// whole sequence is the store's ordered step, one batch at a time in
// the order Select returns the batches, so Quiesce never observes a
// batch between its durable tee and its commit notifications.
//
// A write-ahead log registers {Ingest: tee}; a derived-result cache
// registers {Commit: invalidate}. The two coexist on one store.
type Hooks struct {
	Ingest IngestHook
	Commit BatchNotify
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
	if o.SketchCutover <= 0 {
		o.SketchCutover = DefaultSketchCutover
	}
	if o.SketchAlpha <= 0 {
		o.SketchAlpha = stats.DefaultDDSketchAlpha
	}
	return &Store{
		arena: idArena{limit: maxArenaChunks},
		dict:  newDictionary(),
		rows:  newRowLog(),
		cells: newSketcher(o.SketchCutover, o.SketchAlpha),
	}
}

// AddHooks appends an observer to the hook chain and returns a function
// that removes it again. Both registration and removal wait for the
// batch in its ordered step, so after AddHooks returns every subsequent
// successful Add/AddBatch passes through the observer, and after the
// remove function returns none do. Recovery installs its WAL tee only
// after replaying, so replayed batches are not re-teed to the log they
// came from. The remove function is idempotent.
func (s *Store) AddHooks(h Hooks) (remove func()) {
	s.orderMu.Lock()
	id := s.nextHookID
	s.nextHookID++
	s.hooks = append(s.hooks, hookEntry{id: id, h: h})
	s.orderMu.Unlock()
	return func() {
		s.orderMu.Lock()
		for i, e := range s.hooks {
			if e.id == id {
				s.hooks = append(s.hooks[:i], s.hooks[i+1:]...)
				break
			}
		}
		s.orderMu.Unlock()
	}
}

// Quiesce runs fn between batches: a writer that has begun its ordered
// step has also stored its batch and delivered its commit
// notifications, and new writers block until fn returns. The
// persistence layer snapshots under Quiesce so the captured record set
// and the captured WAL offset name the same point in time. fn may read
// the store but must not write to it.
func (s *Store) Quiesce(fn func()) {
	s.orderMu.Lock()
	defer s.orderMu.Unlock()
	fn()
}

// Add validates and inserts a record. Duplicate (dataset, ID) pairs are
// rejected. It is AddBatch of one record.
func (s *Store) Add(r Record) error { return s.AddBatch([]Record{r}) }

// AddBatch validates and inserts a batch atomically with respect to
// errors: the whole batch is validated and checked for duplicates
// (against the store and within itself) before any record is stored, so
// a mid-batch failure stores no record and claims no ID. A batch that
// fails validation or the duplicate check leaves the store unchanged. A
// batch that would overflow the dictionary or the ID arena fails before
// the hook chain runs, as does one the hook chain's Ingest phase vetoes;
// either stores and claims nothing, but the batch's new names may stay
// in the dictionary and its IDs' bytes in the arena, unreferenced. The
// batch's rows and cells are then added under one exclusive hold of the
// view lock, so no read sees part of it. Concurrent callers are
// serialized.
func (s *Store) AddBatch(rs []Record) error {
	if len(rs) == 0 {
		return nil
	}
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
		hashes[i] = fnv64a(r.Dataset, r.ID)
		rows[i] = newRow(r)
	}

	s.orderMu.Lock()
	defer s.orderMu.Unlock()
	// The duplicate check only looks names up: a dataset the dictionary
	// has never held owns no stored ID, so a duplicate batch interns
	// nothing. Writers hold orderMu, so the log's rows hold still.
	var last lastName
	for i := range rs {
		ds, _ := last.resolve(rs[i].Dataset, s.dict.find)
		if ds != noSym && s.ids.find(hashes[i], func(pos uint32) bool {
			r := at(s.rows.chunks, int(pos))
			return r.ds == ds && string(s.id(r)) == rs[i].ID
		}) {
			return fmt.Errorf("dataset: record %d of %d: %w %s/%s", i+1, len(rs), ErrDuplicate, rs[i].Dataset, rs[i].ID)
		}
	}
	if err := s.dict.fill(rows, rs); err != nil {
		return err
	}
	for i := range rs {
		ref, err := s.arena.add(rs[i].ID)
		if err != nil {
			return err
		}
		rows[i].id = ref
	}
	// The hook chain sees exactly what the log is about to absorb, and
	// nothing after it can fail.
	for _, e := range s.hooks {
		if e.h.Ingest == nil {
			continue
		}
		if err := e.h.Ingest(rs); err != nil {
			return fmt.Errorf("dataset: ingest hook: %w", err)
		}
	}
	s.ids.reserve(len(rs))
	for i := range rs {
		s.ids.insert(hashes[i], uint32(s.rows.n+i))
	}
	s.viewMu.Lock()
	for i := range rows {
		s.rows.append(&rows[i])
	}
	s.cells.add(rs)
	s.viewMu.Unlock()
	for _, e := range s.hooks {
		if e.h.Commit != nil {
			e.h.Commit(rs)
		}
	}
	return nil
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.viewMu.RLock()
	defer s.viewMu.RUnlock()
	return s.rows.n
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

// DatasetCounts returns the number of records per dataset name without
// scanning records.
func (s *Store) DatasetCounts() map[string]int {
	s.viewMu.RLock()
	defer s.viewMu.RUnlock()
	names := s.dict.nameList()
	counts := make(map[string]int, len(s.rows.byDataset))
	for d, n := range s.rows.byDataset {
		counts[names[d]] = n
	}
	return counts
}

// Regions returns the distinct region codes present, sorted.
func (s *Store) Regions() []string {
	s.viewMu.RLock()
	names := s.dict.nameList()
	out := make([]string, 0, len(s.rows.byRegion))
	for r := range s.rows.byRegion {
		out = append(out, names[r])
	}
	s.viewMu.RUnlock()
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
	if !f.From.IsZero() {
		q.hasFrom, q.fromSec, q.fromNsec = true, f.From.Unix(), uint32(f.From.Nanosecond())
	}
	if !f.To.IsZero() {
		q.hasTo, q.toSec, q.toNsec = true, f.To.Unix(), uint32(f.To.Nanosecond())
	}
	return q
}

// matches checks everything but the region, which the log scan
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

// gather passes every stored row matching f to keep, in log order when
// ordered is set, under one read lock: the one log walk behind Select,
// Gather, Values and TimeBounds.
func (s *Store) gather(f Filter, ordered bool, keep func(*Row)) {
	s.viewMu.RLock()
	defer s.viewMu.RUnlock()
	s.rows.scan(s.compile(f), ordered, keep)
}

// Select returns a copy of all records matching f, in insertion order.
// A time comes back Equal to the one stored, with the same zone name
// and offset (see the package doc's zone rule).
func (s *Store) Select(f Filter) []Record {
	var hits []*Row
	s.gather(f, true, func(r *Row) { hits = append(hits, r) })
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

// id returns the bytes of a stored row's ID, in the store's arena.
func (s *Store) id(r *Row) []byte { return s.arena.entry(r.id) }

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

// Gather returns a view of every record matching f, not necessarily in
// insertion order: Select without the copies and without merging a
// region prefix's rows into log order, for callers whose answer does
// not depend on record order, such as every (dataset, metric) cell and
// every window of a windowed score. The view tells rows apart by the
// given dataset names (View.DatasetIndex).
func (s *Store) Gather(f Filter, datasets []string) View {
	v := View{syms: make([]sym, len(datasets))}
	s.gather(f, false, func(r *Row) { v.Rows = append(v.Rows, r) })
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
	var out []float64
	s.gather(f, true, func(r *Row) {
		if v, ok := r.Value(m); ok {
			out = append(out, v)
		}
	})
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
		v, err := stats.PercentileInPlace(vals, q)
		return v, len(vals), err
	}
	a := s.AggregateCells(f.RegionPrefix, []CellQuery{{Dataset: f.Dataset, Metric: m, Q: q}})[0]
	return a.Value, a.Count, a.Err
}

// AggregateCells is Sketcher.AggregateCells over the store's cell index,
// under one read lock.
func (s *Store) AggregateCells(regionPrefix string, qs []CellQuery) []CellAnswer {
	s.viewMu.RLock()
	defer s.viewMu.RUnlock()
	return s.cells.AggregateCells(regionPrefix, qs)
}

// TimeBounds returns the earliest and latest record timestamps matching
// f, each in its record's zone. ok is false when nothing matches.
func (s *Store) TimeBounds(f Filter) (min, max time.Time, ok bool) {
	var lo, hi *Row
	s.gather(f, false, func(r *Row) {
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
