package httpapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/persist"
	"iqb/internal/telemetry"
)

// newInstrumentedServer opens the full production shape: a WAL-backed
// store, a score cache and a telemetry registry instrumenting all three
// layers plus the HTTP routes, seeded with buildWorld's records.
func newInstrumentedServer(t *testing.T, o persist.Options) (*httptest.Server, *telemetry.Registry, *persist.Manager) {
	t.Helper()
	memStore, db := buildWorld(t)
	reg := telemetry.NewRegistry()
	o.Metrics = reg
	m, err := persist.Open(t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store().AddBatch(memStore.Select(dataset.Filter{})); err != nil {
		t.Fatal(err)
	}
	return serve(t, Config{Store: m.Store(), Persist: m, Geo: db, Metrics: reg}), reg, m
}

// scrapeMetrics fetches /metrics and returns the body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	return string(body)
}

// parseScrape validates the exposition grammar line by line and returns
// the samples plus the set of families TYPEd as counters.
func parseScrape(t *testing.T, body string) (samples map[string]float64, counters map[string]bool) {
	t.Helper()
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|NaN)$`)
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|untyped)$`)
	helpRe := regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	samples = map[string]float64{}
	counters = map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if m := typeRe.FindStringSubmatch(line); m != nil {
				if m[2] == "counter" {
					counters[m[1]] = true
				}
				continue
			}
			if !helpRe.MatchString(line) {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	return samples, counters
}

// TestMetricsExposition drives real traffic through every instrumented
// layer and checks the scrape: well-formed exposition, per-endpoint
// series present, DDSketch quantiles monotone, WAL and cache counters
// wired to the authoritative numbers, and no counter ever decreasing
// between scrapes.
func TestMetricsExposition(t *testing.T) {
	ts, _, _ := newInstrumentedServer(t, persist.Options{NoSync: true})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	traffic := func() {
		t.Helper()
		if _, err := c.Score(ctx, "XA-01-001"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ranking(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Health(ctx); err != nil {
			t.Fatal(err)
		}
	}
	traffic()
	first, counters := parseScrape(t, scrapeMetrics(t, ts.URL))

	scoreKey := `iqb_http_requests_total{method="GET",path="/v1/score"}`
	if first[scoreKey] < 1 {
		t.Errorf("%s = %v, want >= 1", scoreKey, first[scoreKey])
	}
	if got := first[`iqb_http_in_flight{method="GET",path="/v1/score"}`]; got != 0 {
		t.Errorf("in-flight after requests completed = %v, want 0", got)
	}
	q := func(quant string) float64 {
		k := fmt.Sprintf(`iqb_http_request_seconds{method="GET",path="/v1/score",quantile="%s"}`, quant)
		v, ok := first[k]
		if !ok {
			t.Fatalf("scrape missing %s", k)
		}
		return v
	}
	p50, p90, p99 := q("0.5"), q("0.9"), q("0.99")
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("latency quantiles not monotone: %v %v %v", p50, p90, p99)
	}
	if got := first[`iqb_http_request_seconds_count{method="GET",path="/v1/score"}`]; got < 1 {
		t.Errorf("latency count = %v, want >= 1", got)
	}
	// The WAL collectors read the same counters /v1/health reports.
	if got := first["iqb_wal_appended_frames_total"]; got < 1 {
		t.Errorf("wal appended frames = %v, want >= 1 (seed batch)", got)
	}
	if got := first["iqb_wal_records_total"]; got < 45 {
		t.Errorf("wal records = %v, want the seeded world's 45", got)
	}
	// Two identical scores above: at least one hit and one miss.
	if first["iqb_scorecache_hits_total"]+first["iqb_scorecache_misses_total"] < 1 {
		t.Error("scorecache counters not wired")
	}
	if _, ok := first["iqb_snapshots_total"]; !ok {
		t.Error("scrape missing iqb_snapshots_total")
	}

	// Counters must never decrease across scrapes.
	traffic()
	second, _ := parseScrape(t, scrapeMetrics(t, ts.URL))
	for key, v1 := range first {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !counters[name] {
			continue
		}
		if v2, ok := second[key]; !ok || v2 < v1 {
			t.Errorf("counter %s went %v -> %v", key, v1, second[key])
		}
	}
	if second[scoreKey] <= first[scoreKey] {
		t.Errorf("%s did not advance: %v -> %v", scoreKey, first[scoreKey], second[scoreKey])
	}
}

// TestMetricsConcurrentWithIngest is the end-to-end race test: scrapes
// render while batches commit through the WAL tee and scores are served
// — run under -race in CI.
func TestMetricsConcurrentWithIngest(t *testing.T) {
	ts, _, m := newInstrumentedServer(t, persist.Options{NoSync: true})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 30; i++ {
			r := dataset.NewRecord(fmt.Sprintf("race-%d", i), "ndt", "XA-01-001", base.Add(time.Duration(i)*time.Minute))
			r.DownloadMbps = 50
			r.UploadMbps = 10
			r.LatencyMS = 30
			r.LossFrac = 0.001
			if err := m.Store().AddBatch([]dataset.Record{r}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := c.Score(ctx, "XA-01-001"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A final scrape must still be well-formed.
	parseScrape(t, scrapeMetrics(t, ts.URL))
}

// gateFS is a persist.WALFS over the real filesystem whose file Syncs
// can be parked on a gate and whose file Writes can be made to fail —
// the fault-injection layer for proving that observability reads never
// queue behind the committer's fsync, that Close drains ingest before
// the WAL, and that a failed WAL write leaves nothing visible.
type gateFS struct {
	blocking   atomic.Bool
	failWrites atomic.Bool
	parked     chan struct{} // one send per Sync that parks
	gate       chan struct{} // closed to release parked Syncs
}

func newGateFS() *gateFS {
	return &gateFS{parked: make(chan struct{}, 8), gate: make(chan struct{})}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (persist.WALFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

func (g *gateFS) Remove(name string) error { return os.Remove(name) }

// SyncDir is a no-op: directory durability is not what this harness
// tests, and a parked dir sync would wedge segment creation.
func (g *gateFS) SyncDir(dir string) error { return nil }

type gateFile struct {
	*os.File
	fs *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	if f.fs.failWrites.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}

func (f *gateFile) Sync() error {
	if f.fs.blocking.Load() {
		f.fs.parked <- struct{}{}
		<-f.fs.gate
	}
	return f.File.Sync()
}

// TestScrapeSucceedsDuringBlockedFsync is the acceptance test for the
// lock-free WAL metadata: with the committer parked mid-fsync (holding
// l.mu), both /metrics and /v1/health must still answer — neither path
// may acquire the committer's mutex.
func TestScrapeSucceedsDuringBlockedFsync(t *testing.T) {
	fs := newGateFS()
	ts, _, m := newInstrumentedServer(t, persist.Options{FS: fs})

	// Park the committer: this append's fsync blocks on the gate while
	// the committer goroutine holds l.mu.
	fs.blocking.Store(true)
	appendDone := make(chan error, 1)
	go func() {
		r := dataset.NewRecord("blocked-append", "ndt", "XA-01-001", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC))
		r.DownloadMbps = 50
		r.UploadMbps = 10
		r.LatencyMS = 30
		r.LossFrac = 0.001
		appendDone <- m.Store().AddBatch([]dataset.Record{r})
	}()
	select {
	case <-fs.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("append never reached the gated fsync")
	}

	// With the fsync parked, both observability endpoints must answer
	// well within the client timeout. Before the metadata moved off
	// l.mu, Status() would block here until the gate opened.
	client := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/metrics", "/v1/health"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s during blocked fsync: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during blocked fsync: status %d: %s", path, resp.StatusCode, body)
		}
	}

	// Release the gate; the parked append must complete durably.
	fs.blocking.Store(false)
	close(fs.gate)
	select {
	case err := <-appendDone:
		if err != nil {
			t.Fatalf("gated append failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append never completed after the gate opened")
	}
}
