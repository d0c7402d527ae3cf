// Package scorecache caches per-region iqb.Score results computed from
// a dataset.Store, invalidating them precisely when ingestion commits
// new records — the read-path twin of internal/persist's write-path
// durability.
//
// # Keying and invalidation
//
// A cache is bound to one scoring configuration, and its entries are
// keyed by (region, from, to). Every committed batch bumps an
// invalidation version for each region code it touched and for every
// hierarchical ancestor of those codes ("XA-01-002" also invalidates
// "XA-01" and "XA", whose subtree scores depend on it), and evicts
// exactly the cached windows that contain at least one of the batch's
// record timestamps. Cached scores for untouched siblings and for time
// windows the batch cannot affect survive.
//
// # Consistency
//
// The store shows every batch whole or not at all, and a score is one
// read of it, so every score is of a record multiset that existed. The
// cache subscribes to the store's ordered hook chain (so it coexists
// with the persistence layer's WAL tee) with a Commit observer only,
// which the store fires after the whole batch is visible: it bumps the
// versions and evicts. A score is retained unless a commit touched its
// region while it was computed; then it may predate a batch whose
// eviction has already run, so it is served to its requester but not
// retained. A score retained before a commit is of the state before
// the batch, and that commit evicts it. Concurrent cold misses for one
// key are collapsed into a single computation.
//
// # Ranking
//
// The county ranking is read from the score entries the cache already
// retains: each county's unbounded-window entry is looked up without
// counting a hit, and only a county with none is rescored. Rank applies
// the same policy to scores computed without the cache, so cached and
// uncached rankings list their rows identically.
//
// # Encoded bodies
//
// ScoreBody and RankingBody hand back a response body built by a
// caller-supplied encoder and keep it next to the value it encodes, so
// a warm read writes stored bytes instead of encoding again.
//
// A score entry gets its body at its first hit, not at the miss that
// computed it. A window requested once (the common case for
// client-chosen from/to) then never retains a body nobody reads again;
// a key that repeats is encoded at its miss and its first hit, then
// served from the stored bytes. Eviction and invalidation drop the
// entry and its body with it.
//
// A ranking body is kept with the exact entries it was built from and
// served while every county still has the same entry. An entry's score
// never changes, invalidation replaces the entry, and the kept pointers
// keep the entries alive, so an unchanged pointer is an unchanged score. A ranking
// that omitted a failed county, or that used a score not retained, is
// never kept, since that county is rescored on the next call.
//
// The encoders must be deterministic functions of their arguments, the
// same for every call on one cache, and the returned bytes are shared
// and must not be modified.
package scorecache

import (
	"errors"
	"log/slog"
	"strings"
	"sync"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
	"iqb/internal/telemetry"
)

// errScorePanic is what flight followers observe when the computation
// they joined panicked; the panic itself propagates to the leader's
// caller.
var errScorePanic = errors.New("scorecache: scoring panicked")

// Outcome says how a Score call was served.
type Outcome int

// Score outcomes.
const (
	// Hit served a retained entry.
	Hit Outcome = iota
	// Miss computed the score and retained it.
	Miss
	// MissUncacheable computed the score while a batch touching the
	// region committed; the result was served but not retained.
	MissUncacheable
	// SharedFlight joined another caller's in-progress computation.
	SharedFlight
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissUncacheable:
		return "miss-uncacheable"
	case SharedFlight:
		return "shared-flight"
	default:
		return "unknown"
	}
}

// Stats is a point-in-time view of cache effectiveness, shaped for the
// /v1/health endpoint.
type Stats struct {
	// Entries is the number of retained scores.
	Entries int `json:"entries"`
	// Hits and Misses count Score calls served from / computed into the
	// cache; Uncacheable counts computations that could not be retained
	// because a commit touched their region meanwhile.
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Uncacheable uint64 `json:"uncacheable"`
	// SharedFlights counts calls that joined a concurrent computation
	// instead of starting their own.
	SharedFlights uint64 `json:"shared_flights"`
	// Invalidations counts committed batches observed; Evictions counts
	// entries they dropped.
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	// RankingRepairs counts counties a ranking rescored because no
	// score of theirs was retained.
	RankingRepairs uint64 `json:"ranking_repairs"`
	// ConfigHash identifies the scoring configuration the entries were
	// computed under.
	ConfigHash string `json:"config_hash"`
}

// DefaultMaxEntries caps retained scores. Unbounded-window entries are
// bounded by the region count, but from/to are client-controlled on
// /v1/score, so distinct windows could otherwise grow the cache without
// limit.
const DefaultMaxEntries = 1 << 16

// key identifies one cached score. The bounds are held in UTC, which
// drops their zone and monotonic reading, so == compares them by
// instant, in seconds and nanoseconds, for every year a time.Time
// holds. A zero bound is unbounded, as in dataset.Filter.
type key struct {
	region   string
	from, to time.Time
}

// entry is one retained score (or its deterministic no-data error).
type entry struct {
	score iqb.Score
	err   error
	// body is the score's encoded response, attached at the entry's
	// first ScoreBody hit; nil until then. Guarded by Cache.mu.
	body []byte
}

// flight is one in-progress computation other callers can join.
type flight struct {
	done chan struct{}
	res  result
}

// result carries a computed score and kept, the entry it was retained
// as (computed from a fully applied record multiset), nil when it was
// not retained. On a hit, body is kept's encoded response, if attached
// yet.
type result struct {
	score iqb.Score
	err   error
	kept  *entry
	body  []byte
}

// Cache is a versioned scored-region cache bound to one store and one
// scoring configuration. Create with New, detach with Close. Safe for
// concurrent use. Cached iqb.Score values are shared between callers
// and must be treated as immutable.
type Cache struct {
	store   *dataset.Store
	cfg     iqb.Config
	cfgHash string
	log     *slog.Logger
	remove  func() // deregisters the hook-chain observer

	// scoreFn computes an uncached score; tests substitute it to count
	// or fail computations. Defaults to cfg.ScoreRegion.
	scoreFn func(region string, from, to time.Time) (iqb.Score, error)

	mu         sync.Mutex
	maxEntries int
	entries    map[key]*entry
	byRegion   map[string]map[key]struct{} // region -> its keys, for eviction
	ver        map[string]uint64           // region (incl. ancestors) -> commit version
	flights    map[key]*flight
	stats      Stats

	// rankMu serializes rankings, so a county without a retained entry
	// is repaired once, and guards the kept body; it is acquired before
	// mu and never the other way around.
	rankMu   sync.Mutex
	rankBody []byte   // a ranking's encoded body, once served
	rankFrom []*entry // each county's entry rankBody was built from
}

// New builds a cache over store scored with cfg and registers it on the
// store's hook chain. The logger may be nil.
func New(store *dataset.Store, cfg iqb.Config, logger *slog.Logger) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hash, err := cfg.Hash()
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.Default()
	}
	c := &Cache{
		store:      store,
		cfg:        cfg,
		cfgHash:    hash,
		log:        logger,
		maxEntries: DefaultMaxEntries,
		entries:    map[key]*entry{},
		byRegion:   map[string]map[key]struct{}{},
		ver:        map[string]uint64{},
		flights:    map[key]*flight{},
	}
	c.stats.ConfigHash = hash
	c.scoreFn = func(region string, from, to time.Time) (iqb.Score, error) {
		return cfg.ScoreRegion(store, region, from, to)
	}
	c.remove = store.AddHooks(dataset.Hooks{Commit: c.onCommit})
	return c, nil
}

// Close detaches the cache from the store's hook chain. The cache stops
// observing ingestion and must not be used afterwards.
func (c *Cache) Close() { c.remove() }

// ConfigHash identifies the scoring configuration behind every entry.
func (c *Cache) ConfigHash() string { return c.cfgHash }

// ancestorsAndSelf expands a hierarchical region code into itself plus
// every ancestor prefix: "XA-01-002" -> XA-01-002, XA-01, XA. A batch
// touching a county invalidates every subtree score above it.
func ancestorsAndSelf(code string, visit func(string)) {
	visit(code)
	for {
		i := strings.LastIndexByte(code, '-')
		if i < 0 {
			return
		}
		code = code[:i]
		visit(code)
	}
}

// timeRange is the record-timestamp span a batch contributed to one
// region (including via descendants).
type timeRange struct {
	min, max time.Time
}

// touchedRegions maps every region a batch affects — each record's code
// and all its ancestors — to the batch's timestamp span there.
func touchedRegions(rs []dataset.Record) map[string]timeRange {
	out := make(map[string]timeRange)
	for _, r := range rs {
		ancestorsAndSelf(r.Region, func(code string) {
			tr, ok := out[code]
			if !ok {
				out[code] = timeRange{min: r.Time, max: r.Time}
				return
			}
			if r.Time.Before(tr.min) {
				tr.min = r.Time
			}
			if r.Time.After(tr.max) {
				tr.max = r.Time
			}
			out[code] = tr
		})
	}
	return out
}

// windowTouches reports whether a cached [from, to) window (zero bounds
// unbounded) contains any instant of the batch's span in that region.
func windowTouches(k key, tr timeRange) bool {
	return (k.from.IsZero() || !tr.max.Before(k.from)) && (k.to.IsZero() || tr.min.Before(k.to))
}

// onCommit fires once the batch is fully visible in the store: bump
// each touched region's version, and evict exactly the cached windows
// the batch's timestamps fall into.
func (c *Cache) onCommit(rs []dataset.Record) {
	touched := touchedRegions(rs)
	c.mu.Lock()
	c.stats.Invalidations++
	for code, tr := range touched {
		c.ver[code]++
		for k := range c.byRegion[code] {
			if windowTouches(k, tr) {
				delete(c.entries, k)
				delete(c.byRegion[code], k)
				c.stats.Evictions++
			}
		}
		if len(c.byRegion[code]) == 0 {
			delete(c.byRegion, code)
		}
	}
	c.mu.Unlock()
}

// Score returns the region subtree's score for the [from, to) window
// (zero bounds unbounded), from cache when possible. The error is
// iqb.ErrNoUsableData-compatible exactly as Config.ScoreRegion's is.
func (c *Cache) Score(region string, from, to time.Time) (iqb.Score, Outcome, error) {
	res, out := c.get(c.key(region, from, to), from, to)
	return res.score, out, res.err
}

// ScoreBody is Score for a caller that serves the score encoded: enc
// turns the score into the response body. It counts Hits, Misses and
// SharedFlights exactly as Score does. A hit on an entry that already
// carries a body returns the stored bytes without calling enc; the
// first hit on an entry encodes outside the lock and attaches the
// bytes, unless the entry was evicted or another caller attached first
// (then that caller's bytes are returned). Misses and shared flights
// encode without attaching (see "Encoded bodies" above). A scoring
// error is returned as Score returns it, and enc is not called.
func (c *Cache) ScoreBody(region string, from, to time.Time, enc func(iqb.Score) ([]byte, error)) ([]byte, Outcome, error) {
	k := c.key(region, from, to)
	res, out := c.get(k, from, to)
	if res.err != nil {
		return nil, out, res.err
	}
	if res.body != nil {
		return res.body, out, nil
	}
	body, err := enc(res.score)
	if err != nil || out != Hit {
		return body, out, err
	}
	c.mu.Lock()
	if c.entries[k] == res.kept {
		if res.kept.body == nil {
			res.kept.body = body
		}
		body = res.kept.body
	}
	c.mu.Unlock()
	return body, out, nil
}

// key builds the cache key for a region and window.
func (c *Cache) key(region string, from, to time.Time) key {
	return key{region: region, from: from.UTC(), to: to.UTC()}
}

// get is the one cache lookup behind Score, ScoreBody and Ranking: a
// hit, a joined flight, or a computation that is retained when clean.
func (c *Cache) get(k key, from, to time.Time) (result, Outcome) {
	region := k.region
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		res := result{score: e.score, err: e.err, kept: e, body: e.body}
		c.stats.Hits++
		c.mu.Unlock()
		return res, Hit
	}
	if f, ok := c.flights[k]; ok {
		c.stats.SharedFlights++
		c.mu.Unlock()
		<-f.done
		return f.res, SharedFlight
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	v0 := c.ver[region]
	c.mu.Unlock()

	// The flight must resolve even if scoring panics (the HTTP layer
	// recovers panics, so the process lives on): otherwise the key —
	// and, through the ranking lock, every future ranking —
	// would block forever on a done channel nobody closes.
	completed := false
	defer func() {
		if completed {
			return
		}
		c.mu.Lock()
		delete(c.flights, k)
		c.stats.Misses++
		c.stats.Uncacheable++
		c.mu.Unlock()
		f.res = result{err: errScorePanic}
		close(f.done)
	}()
	score, err := c.scoreFn(region, from, to)
	completed = true

	c.mu.Lock()
	delete(c.flights, k)
	// Retain only scores no commit can have evicted already: none
	// touched the region since v0 was read. Deterministic no-data
	// outcomes are retained too (they spare the ranking a rescore of
	// empty counties); other errors are never retained.
	cacheable := c.ver[region] == v0 && (err == nil || errors.Is(err, iqb.ErrNoUsableData))
	out := MissUncacheable
	c.stats.Misses++
	var kept *entry
	if cacheable {
		if len(c.entries) >= c.maxEntries {
			c.evictForSpaceLocked()
		}
		kept = &entry{score: score, err: err}
		c.entries[k] = kept
		if c.byRegion[region] == nil {
			c.byRegion[region] = map[key]struct{}{}
		}
		c.byRegion[region][k] = struct{}{}
		out = Miss
	} else {
		c.stats.Uncacheable++
	}
	f.res = result{score: score, err: err, kept: kept}
	c.mu.Unlock()
	close(f.done)
	return f.res, out
}

// evictForSpaceLocked drops one entry to make room at the cap,
// preferring a windowed entry: their key space is client-controlled
// (from/to on /v1/score) and therefore unbounded, while
// unbounded-window entries back the ranking and number at most one per
// region. Map iteration order makes the victim effectively random.
// Callers hold c.mu.
func (c *Cache) evictForSpaceLocked() {
	var victim *key
	for k := range c.entries {
		k := k
		if !k.from.IsZero() || !k.to.IsZero() {
			victim = &k
			break
		}
		if victim == nil {
			victim = &k
		}
	}
	if victim == nil {
		return
	}
	delete(c.entries, *victim)
	if br := c.byRegion[victim.region]; br != nil {
		delete(br, *victim)
		if len(br) == 0 {
			delete(c.byRegion, victim.region)
		}
	}
	c.stats.Evictions++
}

// Stats snapshots cache effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// RegisterMetrics exposes the cache's effectiveness counters on r (nil
// is a no-op). The collectors sample the authoritative counters via
// Stats — one short c.mu hold per sample, never the scoring
// singleflight — instead of double-counting on the hot path.
func (c *Cache) RegisterMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	sample := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(c.Stats()) }
	}
	r.CounterFunc("iqb_scorecache_hits_total",
		"Score calls served from the cache.", nil,
		sample(func(s Stats) float64 { return float64(s.Hits) }))
	r.CounterFunc("iqb_scorecache_misses_total",
		"Score calls computed into the cache.", nil,
		sample(func(s Stats) float64 { return float64(s.Misses) }))
	r.CounterFunc("iqb_scorecache_uncacheable_total",
		"Computations not retained because a commit touched their region meanwhile.", nil,
		sample(func(s Stats) float64 { return float64(s.Uncacheable) }))
	r.CounterFunc("iqb_scorecache_shared_flights_total",
		"Calls that joined a concurrent computation instead of starting their own.", nil,
		sample(func(s Stats) float64 { return float64(s.SharedFlights) }))
	r.CounterFunc("iqb_scorecache_invalidations_total",
		"Committed batches observed by the invalidation hook.", nil,
		sample(func(s Stats) float64 { return float64(s.Invalidations) }))
	r.CounterFunc("iqb_scorecache_evictions_total",
		"Cached scores dropped by invalidation or capacity.", nil,
		sample(func(s Stats) float64 { return float64(s.Evictions) }))
	r.CounterFunc("iqb_scorecache_ranking_repairs_total",
		"Counties a ranking rescored because no score of theirs was retained.", nil,
		sample(func(s Stats) float64 { return float64(s.RankingRepairs) }))
	r.GaugeFunc("iqb_scorecache_entries",
		"Scores currently retained.", nil,
		sample(func(s Stats) float64 { return float64(s.Entries) }))
}
