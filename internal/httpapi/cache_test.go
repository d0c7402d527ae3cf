package httpapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
)

// TestScoreTimeWindow: the from/to query params — which the old handler
// accepted and silently dropped — now select a real [from, to) window.
func TestScoreTimeWindow(t *testing.T) {
	ts := serve(t, Config{})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	// All records sit at 2025-06-01 12:00 UTC.
	full, err := c.Score(ctx, "XA-01-001")
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	windowed, err := c.ScoreWindow(ctx, "XA-01-001", day, day.AddDate(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if windowed.Score.IQB != full.Score.IQB {
		t.Errorf("window covering all data scored %v, unbounded %v", windowed.Score.IQB, full.Score.IQB)
	}
	// A window with no data is a 404, proving the bounds reach the store.
	if _, err := c.ScoreWindow(ctx, "XA-01-001", day.AddDate(0, 0, 7), day.AddDate(0, 0, 8)); err == nil ||
		!strings.Contains(err.Error(), "no usable data") {
		t.Errorf("empty window err = %v, want no-usable-data", err)
	}
}

// TestScoreTimeWindowErrors: unparsable bounds and inverted windows are
// 400s, not silently ignored.
func TestScoreTimeWindowErrors(t *testing.T) {
	ts := serve(t, Config{})
	for _, path := range []string{
		"/v1/score?region=XA-01-001&from=yesterday",
		"/v1/score?region=XA-01-001&to=2025-13-99",
		"/v1/score?region=XA-01-001&from=2025-06-02T00:00:00Z&to=2025-06-01T00:00:00Z",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestRankingOmitsFailedRegion: one region failing with a real error is
// logged and counted, not a 500 that discards every other row.
func TestRankingOmitsFailedRegion(t *testing.T) {
	srv := open(t, Config{})
	cfg := iqb.DefaultConfig()
	srv.scoreOverride = func(region string, from, to time.Time) (iqb.Score, error) {
		if region == "XA-01-002" {
			return iqb.Score{}, errors.New("synthetic scoring failure")
		}
		return cfg.ScoreRegion(srv.store, region, from, to)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	resp, err := c.Ranking(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Omitted != 1 || len(resp.Rows) != 1 || resp.Rows[0].Region != "XA-01-001" {
		t.Fatalf("ranking = %+v", resp)
	}
}

// TestCachedResponsesByteIdentical is the determinism acceptance test:
// with identical worlds, a cache-backed server's /v1/score and
// /v1/ranking responses — body, Content-Type and Content-Length — are
// byte-identical to an uncached server's on the cold miss, on the first
// hit (which attaches the encoded body to the cache), on a hit served
// from the stored bytes, and again after an invalidating AddBatch.
func TestCachedResponsesByteIdentical(t *testing.T) {
	plainStore, _ := buildWorld(t)
	cachedStore, _ := buildWorld(t)
	tsPlain := serve(t, Config{Store: plainStore, NoScoreCache: true})
	tsCached := serve(t, Config{Store: cachedStore})

	// get renders a response as its compared parts.
	get := func(base, path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d: %s", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("%s Content-Length = %q for a %d-byte body", path, resp.Header.Get("Content-Length"), len(body))
		}
		return fmt.Sprintf("Content-Type: %s\nContent-Length: %s\n\n%s",
			resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"), body)
	}
	compare := func(stage string) {
		t.Helper()
		for _, path := range []string{
			"/v1/score?region=XA-01-001",
			"/v1/score?region=XA-01",
			"/v1/score?region=XA-01-001&from=2025-06-01T00:00:00Z&to=2025-06-02T00:00:00Z",
			"/v1/ranking",
		} {
			want := get(tsPlain.URL, path)
			for _, req := range []string{"miss", "first hit", "stored hit"} {
				if got := get(tsCached.URL, path); got != want {
					t.Errorf("%s %s %s: cached response differs\ncached:   %s\nuncached: %s", stage, req, path, got, want)
				}
			}
		}
	}
	compare("pre-ingest")

	// An invalidating batch applied to both worlds: the cache must serve
	// the new truth, still byte-identical.
	batch := func() []dataset.Record {
		ts := time.Date(2025, 6, 1, 18, 0, 0, 0, time.UTC)
		var rs []dataset.Record
		for i := 0; i < 12; i++ {
			r := dataset.NewRecord("inv-"+string(rune('a'+i)), "ndt", "XA-01-001", ts)
			r.DownloadMbps = 4
			r.UploadMbps = 0.5
			r.LatencyMS = 250
			r.LossFrac = 0.05
			rs = append(rs, r)
		}
		return rs
	}
	if err := plainStore.AddBatch(batch()); err != nil {
		t.Fatal(err)
	}
	if err := cachedStore.AddBatch(batch()); err != nil {
		t.Fatal(err)
	}
	compare("post-ingest")
}

// TestHealthReportsCache: the health endpoint grows a cache block when
// the server has a score cache and counts real traffic.
func TestHealthReportsCache(t *testing.T) {
	store, _ := buildWorld(t)
	ts := serve(t, Config{Store: store})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := c.Score(ctx, "XA-01-001"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Score(ctx, "XA-01-001"); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil {
		t.Fatal("health omits cache block on a cache-backed server")
	}
	if h.Cache.Hits != 1 || h.Cache.Misses != 1 || h.Cache.Entries != 1 || h.Cache.ConfigHash == "" {
		t.Fatalf("cache stats = %+v", h.Cache)
	}

	// An invalidating batch shows up in the health counters too: the
	// commit is observed and the cached entry it covers is evicted.
	rec := dataset.NewRecord("inv-health", "ndt", "XA-01-001", time.Date(2025, 6, 1, 18, 0, 0, 0, time.UTC))
	rec.DownloadMbps = 4
	rec.UploadMbps = 0.5
	rec.LatencyMS = 250
	rec.LossFrac = 0.05
	if err := store.AddBatch([]dataset.Record{rec}); err != nil {
		t.Fatal(err)
	}
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cache.Invalidations != 1 || h.Cache.Evictions != 1 {
		t.Fatalf("post-ingest cache stats = %+v, want 1 invalidation and 1 eviction", h.Cache)
	}

	// A server without a cache: block absent.
	plain := serve(t, Config{NoScoreCache: true})
	h2, err := (&Client{BaseURL: plain.URL}).Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Cache != nil {
		t.Fatalf("cacheless health reports cache: %+v", h2.Cache)
	}
}

// TestWriteJSONEncodeFailure: a value that cannot encode yields a real
// 500 with the error envelope, never a truncated 200 (the old
// writeJSON streamed straight into the ResponseWriter).
func TestWriteJSONEncodeFailure(t *testing.T) {
	srv := open(t, Config{})
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "encoding response failed") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}
