package httpapi

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
)

// benchWorld builds a wider world than the test fixture: counties
// counties under one state, recordsPer records per county per dataset.
func benchWorld(b *testing.B, counties, recordsPer int) (*dataset.Store, *geo.DB) {
	b.Helper()
	db := geo.NewDB()
	must := func(err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
	}
	must(db.AddRegion(geo.Region{Code: "XA", Name: "Examplia", Level: geo.Country}))
	must(db.AddRegion(geo.Region{Code: "XA-01", Level: geo.State, Parent: "XA"}))
	store := dataset.NewStore()
	ts := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	var batch []dataset.Record
	for c := 0; c < counties; c++ {
		code := fmt.Sprintf("XA-01-%03d", c+1)
		char := geo.Urban
		if c%2 == 1 {
			char = geo.Rural
		}
		must(db.AddRegion(geo.Region{Code: code, Level: geo.County, Parent: "XA-01", Character: char, Population: 10000 + c}))
		for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
			for i := 0; i < recordsPer; i++ {
				r := dataset.NewRecord(fmt.Sprintf("%s-%s-%d", code, ds, i), ds, code, ts)
				r.DownloadMbps = 50 + float64((c*31+i)%200)
				r.UploadMbps = 10 + float64((c*17+i)%50)
				r.LatencyMS = 10 + float64((c*13+i)%80)
				if ds != "ookla" {
					r.LossFrac = 0.001 * float64((c+i)%20)
				}
				batch = append(batch, r)
			}
		}
	}
	must(store.AddBatch(batch))
	return store, db
}

// BenchmarkRankingColdVsWarm measures /v1/ranking with and without the
// scored-region cache. "cold" re-scores every county per request (the
// pre-cache behavior, and the behavior after a full invalidation);
// "warm" serves the ranking from the cache's retained county scores.
// The gap is the read-path headroom the cache buys — the acceptance bar
// is >= 10x.
func BenchmarkRankingColdVsWarm(b *testing.B) {
	run := func(b *testing.B, noCache bool) {
		b.Helper()
		store, db := benchWorld(b, 40, 60)
		ts := serve(b, Config{Store: store, Geo: db, NoScoreCache: noCache})
		// Prime once so both arms pay setup outside the timer (for the
		// warm arm this fills the cache; for cold it is just a request).
		if resp, err := http.Get(ts.URL + "/v1/ranking"); err != nil {
			b.Fatal(err)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(ts.URL + "/v1/ranking")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status = %d", resp.StatusCode)
			}
		}
	}

	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}

// BenchmarkScoreColdVsWarm is the single-region twin: one county's
// /v1/score with and without the cache.
func BenchmarkScoreColdVsWarm(b *testing.B) {
	run := func(b *testing.B, noCache bool) {
		b.Helper()
		store, db := benchWorld(b, 40, 60)
		ts := serve(b, Config{Store: store, Geo: db, NoScoreCache: noCache})
		url := ts.URL + "/v1/score?region=XA-01-001"
		if resp, err := http.Get(url); err != nil {
			b.Fatal(err)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}

// BenchmarkServeScoreWarm serves one county's warm /v1/score through
// the server's handler stack in-process (no socket, request logging
// off), so it measures the handler plus response-body cost of a cache
// hit alone.
func BenchmarkServeScoreWarm(b *testing.B) { serveWarm(b, "/v1/score?region=XA-01-001") }

// BenchmarkServeRankingWarm is the /v1/ranking twin of
// BenchmarkServeScoreWarm: a ranking whose counties all keep their
// retained entries, served in-process.
func BenchmarkServeRankingWarm(b *testing.B) { serveWarm(b, "/v1/ranking") }

func serveWarm(b *testing.B, path string) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	store, db := benchWorld(b, 40, 60)
	srv := open(b, Config{Store: store, Geo: db, Logger: quiet})
	req := httptest.NewRequest(http.MethodGet, path, nil)
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s status = %d", path, rec.Code)
		}
	}
	// Warm up past the miss and the first hit, so every timed request
	// is a hit on a cached response.
	serve()
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
