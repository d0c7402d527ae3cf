// Package httpapi exposes IQB scores over a JSON HTTP API, with a typed
// client. It serves a scored world: a record store, a geography, and a
// framework configuration.
//
// Endpoints (JSON):
//
//	GET  /v1/health            liveness, store size, persistence,
//	                           score-cache and ingest status
//	GET  /v1/config            the active framework configuration
//	GET  /v1/regions           region codes with level/character/population
//	GET  /v1/score?region=R    full score breakdown for a region subtree;
//	                           optional from/to RFC 3339 bounds select a
//	                           [from, to) time window
//	GET  /v1/ranking           counties ranked best-first, with a count
//	                           of regions omitted by scoring failures
//	GET  /v1/timeseries?region=R[&window=W]
//	                           score series over the region's record
//	                           time span in windows of W (default 24h;
//	                           400 past iqb.MaxWindows windows)
//	GET  /v1/hourly?region=R[&band=B]
//	                           hour-of-day score profile in bands of B
//	                           hours (default 3; B must divide 24)
//	GET  /v1/datasets          dataset names with record counts
//	POST /v1/snapshot          cut a durable snapshot (503 when the
//	                           server runs memory-only)
//	POST /v1/ingest            stream NDJSON records into the live
//	                           ingest pipeline (202 with accepted
//	                           counts; 429 + Retry-After on overload;
//	                           413 past the body cap; 400 for a bad
//	                           line or a duplicate record ID)
//
// # Lifecycle
//
// Open builds every serving part from one Config and owns it until
// Close: the ingest queue, the score cache, the persistence manager of
// a durable server and its background snapshot loop, and the route and
// /metrics instruments. Close joins the snapshot loop, drains the
// ingester into the still-open WAL, closes the cache, and closes the
// persistence manager last, so its final fsync covers every
// acknowledged record.
//
// With the cache, /v1/score and /v1/ranking are answered from cached
// scores invalidated precisely by ingest via the store's hook chain.
// The cache keeps each response body it has served warm, so a repeated
// read writes stored bytes instead of encoding the score again. Every
// body, cached or not, comes from one encoder (encodeBody), so cached
// and uncached responses are byte-identical by construction.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/ingest"
	"iqb/internal/iqb"
	"iqb/internal/persist"
	"iqb/internal/scorecache"
	"iqb/internal/telemetry"
)

// Config is everything Open assembles a server from. Scoring must be
// valid and Store and Geo set; other zero values select defaults.
type Config struct {
	Scoring iqb.Config
	// Store must be Persist.Store() when Persist is set.
	Store *dataset.Store
	// Geo must not change once Open is called.
	Geo    *geo.DB
	Logger *slog.Logger // nil selects slog.Default()
	// Persist backs Store with a data directory; nil serves memory-only.
	// Open owns the manager from the call on, even when it fails.
	Persist *persist.Manager
	// SnapshotInterval is the wall-clock snapshot period of a durable
	// server (0 disables it; the manager's WAL-growth trigger fires
	// either way).
	SnapshotInterval time.Duration
	// NoScoreCache scores every /v1/score and /v1/ranking request anew.
	NoScoreCache bool
	// Ingest sizes the ingest queue; Metrics below replaces its Metrics.
	Ingest ingest.Options
	// IngestBodyCap is in bytes; <= 0 selects DefaultIngestBodyCap.
	IngestBodyCap int64
	// Metrics, when non-nil, instruments the routes, the cache and the
	// ingester, and is served (uninstrumented) at GET /metrics.
	Metrics *telemetry.Registry
}

// Server bundles the scored world behind an http.Handler.
type Server struct {
	cfg           iqb.Config
	store         *dataset.Store
	db            *geo.DB
	log           *slog.Logger
	mux           *http.ServeMux
	persist       *persist.Manager  // nil when memory-only
	cache         *scorecache.Cache // nil with Config.NoScoreCache
	ingestq       *ingest.Ingester
	counties      []string // the ranking's regions, read from db once
	ingestBodyCap int64

	// snapStop ends the snapshot loop, which closes snapDone on exit;
	// both are nil on a memory-only server.
	snapStop, snapDone chan struct{}
	closeOnce          sync.Once
	closeErr           error

	// scoreOverride substitutes the scoring function in tests (e.g. to
	// inject per-region failures); nil in production.
	scoreOverride func(region string, from, to time.Time) (iqb.Score, error)
}

// Open builds a server from c, ready to serve; see the package
// documentation for what it owns and how Close releases it.
func Open(c Config) (s *Server, err error) {
	if c.Persist != nil {
		defer func() {
			if err != nil {
				err = errors.Join(err, c.Persist.Close())
			}
		}()
	}
	if err := c.Scoring.Validate(); err != nil {
		return nil, err
	}
	if c.Store == nil || c.Geo == nil {
		return nil, fmt.Errorf("httpapi: store and geography are required")
	}
	if c.Persist != nil && c.Persist.Store() != c.Store {
		return nil, fmt.Errorf("httpapi: store is not the persistence manager's store")
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.IngestBodyCap <= 0 {
		c.IngestBodyCap = DefaultIngestBodyCap
	}
	s = &Server{cfg: c.Scoring, store: c.Store, db: c.Geo, log: c.Logger, mux: http.NewServeMux(),
		persist: c.Persist, counties: c.Geo.Regions(geo.County), ingestBodyCap: c.IngestBodyCap}
	c.Ingest.Metrics = c.Metrics
	if s.ingestq, err = ingest.New(c.Store, c.Ingest); err != nil {
		return nil, err
	}
	if !c.NoScoreCache {
		// The cache joins the store's hook chain after any WAL tee the
		// manager installed: batches tee durably first and invalidate
		// the cache once committed.
		if s.cache, err = scorecache.New(c.Store, c.Scoring, c.Logger); err != nil {
			s.ingestq.Close()
			return nil, err
		}
		s.cache.RegisterMetrics(c.Metrics)
	}
	s.handle(c.Metrics, "GET /v1/health", s.handleHealth)
	s.handle(c.Metrics, "GET /v1/config", s.handleConfig)
	s.handle(c.Metrics, "GET /v1/regions", s.handleRegions)
	s.handle(c.Metrics, "GET /v1/score", s.handleScore)
	s.handle(c.Metrics, "GET /v1/ranking", s.handleRanking)
	s.handle(c.Metrics, "GET /v1/datasets", s.handleDatasets)
	s.handle(c.Metrics, "POST /v1/snapshot", s.handleSnapshot)
	s.handle(c.Metrics, "POST /v1/ingest", s.handleIngest)
	s.handle(c.Metrics, "GET /v1/timeseries", s.handleTimeSeries)
	s.handle(c.Metrics, "GET /v1/hourly", s.handleHourly)
	if c.Metrics != nil {
		s.mux.Handle("GET /metrics", c.Metrics.Handler())
	}
	if c.Persist != nil {
		s.snapStop, s.snapDone = make(chan struct{}), make(chan struct{})
		go s.snapshotLoop(c.SnapshotInterval)
	}
	return s, nil
}

// Close releases what Open built, in the order the package
// documentation gives. Call it once the HTTP server has stopped handing
// requests to s. Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		s.closeErr = s.ingestq.Close()
		if s.cache != nil {
			s.cache.Close()
		}
		if s.persist != nil {
			s.closeErr = errors.Join(s.closeErr, s.persist.Close())
		}
	})
	return s.closeErr
}

// snapshotLoop cuts background snapshots until Close, on two
// independent triggers: the wall-clock ticker (when every > 0) and the
// manager's WAL-growth signal (never fires when the trigger is
// disabled). The growth path re-checks the threshold via
// SnapshotIfGrown, so a signal raced by a wall-clock snapshot that
// already covered the growth becomes a no-op instead of a redundant
// full-store snapshot.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	logCut := func(trigger string, info persist.SnapshotInfo, err error) {
		if err != nil {
			s.log.Error("background snapshot failed", "trigger", trigger, "err", err)
			return
		}
		s.log.Info("background snapshot", "trigger", trigger, "path", info.Path,
			"records", info.Records, "wal_offset", info.WALOffset, "bytes", info.Bytes)
	}
	// Receiving from GrowthC consumes the (coalesced) signal, so a
	// growth snapshot that fails transiently must be retried by the
	// loop itself — idle ingest would otherwise never re-signal and the
	// replay debt would stay over the threshold indefinitely. The retry
	// re-checks through SnapshotIfGrown, so it dies out as soon as any
	// snapshot (ours or a wall-clock one) covers the growth.
	var retry <-chan time.Time
	for {
		select {
		case <-s.snapStop:
			return
		case <-tick:
			info, err := s.persist.Snapshot()
			logCut("interval", info, err)
			continue
		case <-s.persist.GrowthC():
		case <-retry:
		}
		info, cut, err := s.persist.SnapshotIfGrown()
		retry = nil
		if err != nil {
			retry = time.After(5 * time.Second)
		}
		if cut || err != nil {
			logCut("wal-growth", info, err)
		}
	}
}

// handle registers a route through the instrumentation middleware:
// with a registry, the wrapper (which knows its pattern; the CI
// toolchain predates http.Request.Pattern) bumps the endpoint's request
// counter and in-flight gauge and tags the response writer, so
// ServeHTTP feeds its one elapsed measurement, also logged, into the
// endpoint's latency histogram.
func (s *Server) handle(reg *telemetry.Registry, pattern string, h http.HandlerFunc) {
	em := newEndpointMetrics(reg, pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if em != nil {
			em.requests.Inc()
			em.inFlight.Inc()
			defer em.inFlight.Dec()
			if tw, ok := w.(*trackedWriter); ok {
				tw.endpoint = em
			}
		}
		h(w, r)
	})
}

// scoreRegion scores one region subtree directly, or through the test
// override when one is set.
func (s *Server) scoreRegion(region string, from, to time.Time) (iqb.Score, error) {
	if s.scoreOverride != nil {
		return s.scoreOverride(region, from, to)
	}
	return s.cfg.ScoreRegion(s.store, region, from, to)
}

// cached reports whether reads are served from the score cache.
func (s *Server) cached() bool { return s.cache != nil && s.scoreOverride == nil }

// ServeHTTP implements http.Handler with logging, panic recovery, and
// latency attribution: the elapsed time is measured exactly once and
// feeds both the request log line and the serving endpoint's latency
// histogram, so logged and exported latencies cannot disagree.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tw := &trackedWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("panic in handler", "path", r.URL.Path, "panic", rec)
			writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	s.mux.ServeHTTP(tw, r)
	elapsed := time.Since(start)
	tw.endpoint.observeLatency(elapsed.Seconds())
	s.log.Info("request", "method", r.Method, "path", r.URL.Path, "elapsed", elapsed)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// errEncode marks a response that could not be encoded.
var errEncode = errors.New("encoding response failed")

// encodeBody is the server's one JSON encoder: every response body,
// cached or not, is built here, with the trailing newline and default
// HTML escaping of json.Encoder. Encoding into a buffer first means a
// mid-encode failure yields a real 500 instead of a truncated 200 body
// whose status line already went out.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("%w: %v", errEncode, err)
	}
	return buf.Bytes(), nil
}

// writeBody sends an encoded JSON body in one Write, with its length
// set so it does not go out chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	body, _ := encodeBody(errorBody{Error: msg}) // a lone string always encodes
	writeBody(w, code, body)
}

// writeJSON encodes v and sends it with status code, or a 500 if v does
// not encode.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeBody(v)
	if err != nil {
		s.log.Error("encoding response", "err", err)
		writeError(w, http.StatusInternalServerError, errEncode.Error())
		return
	}
	writeBody(w, code, body)
}

// HealthResponse reports liveness, store size, the ingest queue, and —
// when the server has them — the durable store's shape and the score
// cache's effectiveness.
type HealthResponse struct {
	Status  string `json:"status"`
	Records int    `json:"records"`
	// Persistence is nil for a memory-only server.
	Persistence *persist.Status `json:"persistence,omitempty"`
	// Cache is nil when the server runs without a score cache.
	Cache  *scorecache.Stats `json:"cache,omitempty"`
	Ingest *ingest.Stats     `json:"ingest,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	ist := s.ingestq.Stats()
	resp := HealthResponse{Status: "ok", Records: s.store.Len(), Ingest: &ist}
	if s.persist != nil {
		st := s.persist.Status()
		resp.Persistence = &st
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// SnapshotResponse wraps the snapshot a POST /v1/snapshot produced.
type SnapshotResponse struct {
	Snapshot persist.SnapshotInfo `json:"snapshot"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		writeError(w, http.StatusServiceUnavailable, "persistence not enabled (start the server with -data-dir)")
		return
	}
	info, err := s.persist.Snapshot()
	if err != nil {
		s.log.Error("snapshot", "err", err)
		writeError(w, http.StatusInternalServerError, "snapshot failed")
		return
	}
	s.log.Info("snapshot", "path", info.Path, "records", info.Records, "wal_offset", info.WALOffset)
	s.writeJSON(w, http.StatusOK, SnapshotResponse{Snapshot: info})
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	// Buffer-first for the same reason as encodeBody: an encode failure
	// must surface as a 500, not a truncated 200.
	var buf bytes.Buffer
	if err := s.cfg.WriteJSON(&buf); err != nil {
		s.log.Error("writing config", "err", err)
		writeError(w, http.StatusInternalServerError, "encoding config failed")
		return
	}
	writeBody(w, http.StatusOK, buf.Bytes())
}

// RegionInfo is one row of /v1/regions.
type RegionInfo struct {
	Code       string `json:"code"`
	Name       string `json:"name"`
	Level      string `json:"level"`
	Character  string `json:"character"`
	Population int    `json:"population"`
	Parent     string `json:"parent,omitempty"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	regions := s.db.AllRegions()
	// Non-nil so an empty region set encodes as [] rather than null.
	out := make([]RegionInfo, 0, len(regions))
	for _, code := range regions {
		reg, ok := s.db.Region(code)
		if !ok {
			// A dangling code would otherwise panic or emit a zero row.
			s.log.Error("regions: code without a region; skipping", "code", code)
			continue
		}
		out = append(out, RegionInfo{
			Code:       reg.Code,
			Name:       reg.Name,
			Level:      reg.Level.String(),
			Character:  reg.Character.String(),
			Population: reg.Population,
			Parent:     reg.Parent,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// ScoreResponse wraps a region's score.
type ScoreResponse struct {
	Region string    `json:"region"`
	Score  iqb.Score `json:"score"`
}

// timeBound parses an optional RFC 3339 query parameter; ok is false
// (and a 400 already written) when the value does not parse.
func (s *Server) timeBound(w http.ResponseWriter, q url.Values, name string) (time.Time, bool) {
	raw := q.Get(name)
	if raw == "" {
		return time.Time{}, true
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q: want RFC 3339, e.g. 2025-06-01T00:00:00Z", name, raw))
		return time.Time{}, false
	}
	return t, true
}

// regionQuery parses the query once (each r.URL.Query call re-parses)
// and reads its required region parameter. ok is false, and a 400 or a
// 404 already written, when the region is missing or unknown.
func (s *Server) regionQuery(w http.ResponseWriter, r *http.Request) (q url.Values, region string, ok bool) {
	q = r.URL.Query()
	region = q.Get("region")
	if region == "" {
		writeError(w, http.StatusBadRequest, "region parameter required")
		return nil, "", false
	}
	if _, ok := s.db.Region(region); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown region %q", region))
		return nil, "", false
	}
	return q, region, true
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	q, region, ok := s.regionQuery(w, r)
	if !ok {
		return
	}
	// Optional [from, to) window; both bounds default to unbounded. The
	// old handler accepted and silently dropped these.
	from, ok := s.timeBound(w, q, "from")
	if !ok {
		return
	}
	to, ok := s.timeBound(w, q, "to")
	if !ok {
		return
	}
	if !from.IsZero() && !to.IsZero() && !from.Before(to) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("empty window: from %s is not before to %s", from.Format(time.RFC3339), to.Format(time.RFC3339)))
		return
	}
	body, err := s.scoreBody(region, from, to)
	switch {
	case err == nil:
		writeBody(w, http.StatusOK, body)
	case errors.Is(err, iqb.ErrNoUsableData):
		writeError(w, http.StatusNotFound, fmt.Sprintf("no usable data for region %q", region))
	case errors.Is(err, errEncode):
		s.log.Error("encoding response", "region", region, "err", err)
		writeError(w, http.StatusInternalServerError, errEncode.Error())
	default:
		s.log.Error("scoring", "region", region, "err", err)
		writeError(w, http.StatusInternalServerError, "scoring failed")
	}
}

// scoreBody returns the encoded ScoreResponse for one region subtree:
// the cache's stored bytes when the server has a cache, a fresh encode
// otherwise.
func (s *Server) scoreBody(region string, from, to time.Time) ([]byte, error) {
	enc := func(sc iqb.Score) ([]byte, error) {
		return encodeBody(ScoreResponse{Region: region, Score: sc})
	}
	if s.cached() {
		body, _, err := s.cache.ScoreBody(region, from, to, enc)
		return body, err
	}
	score, err := s.scoreRegion(region, from, to)
	if err != nil {
		return nil, err
	}
	return enc(score)
}

// RankingRow is one row of /v1/ranking.
type RankingRow struct {
	Rank      int     `json:"rank"`
	Region    string  `json:"region"`
	Character string  `json:"character"`
	IQB       float64 `json:"iqb"`
	Grade     string  `json:"grade"`
}

// RankingResponse is the /v1/ranking envelope. Omitted counts counties
// whose scoring failed outright this request (they are logged and
// skipped rather than taking the whole ranking down); counties with no
// usable data are simply absent and not counted.
type RankingResponse struct {
	// Rows is non-nil so an empty ranking encodes as [].
	Rows    []RankingRow `json:"rows"`
	Omitted int          `json:"omitted"`
}

func (s *Server) handleRanking(w http.ResponseWriter, r *http.Request) {
	var (
		body []byte
		err  error
	)
	if s.cached() {
		// Ranked from the cache's retained county scores: only counties
		// with none are rescored, and while every county keeps the entry
		// the last body was built from, that body is served as is.
		body, err = s.cache.RankingBody(s.counties, s.encodeRanking)
	} else {
		body, err = s.encodeRanking(scorecache.Rank(s.counties, s.scoreRegion, s.log))
	}
	if err != nil {
		s.log.Error("encoding response", "err", err)
		writeError(w, http.StatusInternalServerError, errEncode.Error())
		return
	}
	writeBody(w, http.StatusOK, body)
}

// encodeRanking encodes ranked counties as the /v1/ranking body.
func (s *Server) encodeRanking(ranked []scorecache.Ranked, omitted int) ([]byte, error) {
	rows := make([]RankingRow, 0, len(ranked))
	for _, row := range ranked {
		reg, ok := s.db.Region(row.Region)
		if !ok {
			s.log.Error("ranking: code without a region; skipping", "code", row.Region)
			continue
		}
		rows = append(rows, RankingRow{
			Rank:      len(rows) + 1,
			Region:    row.Region,
			Character: reg.Character.String(),
			IQB:       row.Score.IQB,
			Grade:     string(row.Score.Grade),
		})
	}
	return encodeBody(RankingResponse{Rows: rows, Omitted: omitted})
}

// DatasetCount is one row of /v1/datasets.
type DatasetCount struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	// The store's per-dataset counts instead of a record scan.
	counts := s.store.DatasetCounts()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	// Non-nil so an empty store encodes as [] rather than null.
	out := make([]DatasetCount, 0, len(names))
	for _, name := range names {
		out = append(out, DatasetCount{Name: name, Records: counts[name]})
	}
	s.writeJSON(w, http.StatusOK, out)
}
