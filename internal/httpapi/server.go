// Package httpapi exposes IQB scores over a JSON HTTP API, with a typed
// client. It serves a scored world: a record store, a geography, and a
// framework configuration.
//
// Endpoints (JSON):
//
//	GET  /v1/health            liveness, store size, persistence and
//	                           score-cache status
//	GET  /v1/config            the active framework configuration
//	GET  /v1/regions           region codes with level/character/population
//	GET  /v1/score?region=R    full score breakdown for a region subtree;
//	                           optional from/to RFC 3339 bounds select a
//	                           [from, to) time window
//	GET  /v1/ranking           counties ranked best-first, with a count
//	                           of regions omitted by scoring failures
//	GET  /v1/datasets          dataset names with record counts
//	POST /v1/snapshot          cut a durable snapshot (503 when the
//	                           server runs memory-only)
//	POST /v1/ingest            stream NDJSON records into the live
//	                           ingest pipeline (202 with accepted
//	                           counts; 429 + Retry-After on overload;
//	                           413 past the body cap; 503 when live
//	                           ingest is not enabled)
//
// When a scored-region cache is attached (SetScoreCache), /v1/score and
// /v1/ranking are served from it — invalidated precisely by ingest via
// the store's hook chain — and /v1/health reports its effectiveness.
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
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/ingest"
	"iqb/internal/iqb"
	"iqb/internal/persist"
	"iqb/internal/scorecache"
)

// Persistence is the durable-store control surface the server exposes
// when it is backed by a data directory. *persist.Manager implements it.
type Persistence interface {
	// Snapshot cuts an atomic point-in-time snapshot and compacts the
	// WAL segments it covers.
	Snapshot() (persist.SnapshotInfo, error)
	// Status reports the durable store's current shape.
	Status() persist.Status
}

// Server bundles the scored world behind an http.Handler.
type Server struct {
	cfg      iqb.Config
	store    *dataset.Store
	db       *geo.DB
	log      *slog.Logger
	mux      *http.ServeMux
	persist  Persistence
	cache    *scorecache.Cache
	patterns []string // mux patterns registered via handle, for SetMetrics

	// Live ingest pipeline (SetIngest); nil answers 503.
	ingestq       *ingest.Ingester
	ingestBodyCap int64

	// endpoints maps a mux pattern to its instruments. Built once by
	// SetMetrics before serving, then only read; nil when the server
	// runs uninstrumented.
	endpoints map[string]*endpointMetrics

	// scoreOverride substitutes the scoring function in tests (e.g. to
	// inject per-region failures); nil in production.
	scoreOverride func(region string, from, to time.Time) (iqb.Score, error)
}

// New builds a server. The logger may be nil.
func New(cfg iqb.Config, store *dataset.Store, db *geo.DB, logger *slog.Logger) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil || db == nil {
		return nil, fmt.Errorf("httpapi: store and geography are required")
	}
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{cfg: cfg, store: store, db: db, log: logger, mux: http.NewServeMux()}
	s.handle("GET /v1/health", s.handleHealth)
	s.handle("GET /v1/config", s.handleConfig)
	s.handle("GET /v1/regions", s.handleRegions)
	s.handle("GET /v1/score", s.handleScore)
	s.handle("GET /v1/ranking", s.handleRanking)
	s.handle("GET /v1/datasets", s.handleDatasets)
	s.handle("POST /v1/snapshot", s.handleSnapshot)
	s.handle("POST /v1/ingest", s.handleIngest)
	s.registerTimeSeries()
	return s, nil
}

// handle registers a route through the instrumentation middleware: the
// wrapper knows its pattern (the CI toolchain predates http.Request
// .Pattern), bumps the endpoint's request counter and in-flight gauge,
// and tags the response writer so ServeHTTP can feed the one elapsed
// measurement it already takes for the log line into the endpoint's
// latency histogram — logged and exported latencies cannot diverge.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.patterns = append(s.patterns, pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if em := s.endpoints[pattern]; em != nil {
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

// SetPersistence attaches the durable-store control surface (nil
// detaches it). Call before serving; the snapshot endpoint and the
// health persistence block answer 503/absent until one is attached.
func (s *Server) SetPersistence(p Persistence) { s.persist = p }

// SetScoreCache attaches a scored-region cache (nil detaches it). Call
// before serving. With a cache attached, /v1/score and /v1/ranking are
// answered from cached scores invalidated by ingest, and /v1/health
// grows a cache block. The cache must be built over the same store and
// configuration the server was.
func (s *Server) SetScoreCache(c *scorecache.Cache) { s.cache = c }

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

// HealthResponse reports liveness, store size, and — when attached —
// the durable store's shape and the score cache's effectiveness.
type HealthResponse struct {
	Status  string `json:"status"`
	Records int    `json:"records"`
	// Persistence is nil for a memory-only server.
	Persistence *persist.Status `json:"persistence,omitempty"`
	// Cache is nil when no score cache is attached.
	Cache *scorecache.Stats `json:"cache,omitempty"`
	// Ingest is nil when live ingest is not enabled.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Records: s.store.Len()}
	if s.persist != nil {
		st := s.persist.Status()
		resp.Persistence = &st
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	if s.ingestq != nil {
		st := s.ingestq.Stats()
		resp.Ingest = &st
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

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query() // parsed once: each Query call re-parses
	region := q.Get("region")
	if region == "" {
		writeError(w, http.StatusBadRequest, "region parameter required")
		return
	}
	if _, ok := s.db.Region(region); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown region %q", region))
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
// the cache's stored bytes when a cache is attached, a fresh encode
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
	counties := s.db.Regions(geo.County)
	var (
		body []byte
		err  error
	)
	if s.cached() {
		// Served from the incrementally repaired sorted view: only
		// counties invalidated since the last request are rescored, and
		// an unrepaired view is served as the bytes it last encoded to.
		body, err = s.cache.RankingBody(counties, s.encodeRanking)
	} else {
		var (
			ranked  []scorecache.Ranked
			omitted int
		)
		for _, code := range counties {
			sc, err := s.scoreRegion(code, time.Time{}, time.Time{})
			if err != nil {
				if errors.Is(err, iqb.ErrNoUsableData) {
					continue
				}
				// One failing region no longer 500s the whole ranking.
				s.log.Error("ranking: scoring region failed; omitting", "region", code, "err", err)
				omitted++
				continue
			}
			ranked = append(ranked, scorecache.Ranked{Region: code, Score: sc})
		}
		scorecache.SortRanked(ranked)
		body, err = s.encodeRanking(ranked, omitted)
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
	// One O(shards) pass instead of a per-dataset record scan.
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
