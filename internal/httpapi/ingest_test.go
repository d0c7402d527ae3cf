package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/ingest"
	"iqb/internal/iqb"
	"iqb/internal/persist"
)

func ingestRecord(id, ds, region string) dataset.Record {
	r := dataset.NewRecord(id, ds, region, time.Date(2025, 6, 3, 12, 0, 0, 0, time.UTC))
	r.DownloadMbps = 120
	r.UploadMbps = 35
	r.LatencyMS = 18
	r.LossFrac = 0.002
	return r
}

// ingestIDs posts one ingestRecord per ID, all ndt in XA-01-001.
func ingestIDs(c *Client, ids ...string) (IngestResponse, error) {
	rs := make([]dataset.Record, len(ids))
	for i, id := range ids {
		rs[i] = ingestRecord(id, "ndt", "XA-01-001")
	}
	return c.Ingest(context.Background(), rs)
}

// TestIngestAcceptsAndCommits: a 202's accepted count matches what the
// store now holds, records are immediately query-visible, and the
// health endpoint reports the pipeline.
func TestIngestAcceptsAndCommits(t *testing.T) {
	store, _ := buildWorld(t)
	before := store.Len()
	ts := serve(t, Config{Store: store})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	batch := make([]dataset.Record, 20)
	for i := range batch {
		batch[i] = ingestRecord(fmt.Sprintf("live-%d", i), "ndt", "XA-01-001")
	}
	resp, err := c.Ingest(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 20 || resp.Rejected != 0 {
		t.Fatalf("ingest response = %+v, want 20 accepted", resp)
	}
	if got := store.Len(); got != before+20 {
		t.Fatalf("store holds %d records, want %d", got, before+20)
	}
	// Immediately query-visible: the new records shift the dataset count.
	counts, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range counts {
		if dc.Name == "ndt" && dc.Records != 30+20 {
			t.Fatalf("ndt count after ingest = %d, want 50", dc.Records)
		}
	}
	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Ingest.AcceptedRecords != 20 {
		t.Fatalf("health ingest stats = %+v, want 20 accepted", health.Ingest)
	}
}

// TestIngestBadLine400 pins the actionable-400 contract: the body names
// the offending NDJSON line (globally, across chunk boundaries) and how
// many records before it were already durably accepted.
func TestIngestBadLine400(t *testing.T) {
	store, _ := buildWorld(t)
	before := store.Len()
	// DrainRecords 2 forces multi-chunk decoding: the bad line sits in
	// the third chunk but must still be reported by its global position.
	ts := serve(t, Config{Store: store, Ingest: ingest.Options{DrainRecords: 2}})

	var body strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&body, `{"id":"ok-%d","time":"2025-06-03T12:00:00Z","dataset":"ndt","region":"XA-01-001","download_mbps":50}`+"\n", i)
	}
	body.WriteString("definitely not json\n")

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var ir IngestResponse
	if err := jsonDecode(resp.Body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Line != 6 {
		t.Fatalf("400 body names line %d, want global line 6: %+v", ir.Line, ir)
	}
	if !strings.Contains(ir.Error, "line 6") {
		t.Fatalf("400 error text %q does not name line 6", ir.Error)
	}
	// Chunks decoded before the bad line were accepted and are durable.
	if ir.Accepted != 4 {
		t.Fatalf("accepted before the bad line = %d, want 4 (two 2-record chunks)", ir.Accepted)
	}
	if got := store.Len(); got != before+4 {
		t.Fatalf("store grew by %d, want the 4 accepted", got-before)
	}
}

// TestIngestDuplicateID400: a record ID the store already holds, or
// one repeated within a body, is the client's error — a 400 naming the
// key, with the chunks before it accepted and durable.
func TestIngestDuplicateID400(t *testing.T) {
	store, _ := buildWorld(t)
	before := store.Len()
	// DrainRecords 2: each duplicate sits in its body's second chunk.
	ts := serve(t, Config{Store: store, Ingest: ingest.Options{DrainRecords: 2}})
	c := &Client{BaseURL: ts.URL}
	if _, err := ingestIDs(c, "stored"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ids  []string
		key  string
	}{
		{"already stored", []string{"a-1", "a-2", "stored"}, "ndt/stored"},
		{"twice in one body", []string{"b-1", "b-2", "b-3", "b-3"}, "ndt/b-3"},
	} {
		resp, err := ingestIDs(c, tc.ids...)
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || resp.Accepted != 2 || !strings.Contains(ae.Msg, tc.key) {
			t.Errorf("%s: response %+v, err %v; want 400 naming %s with 2 accepted", tc.name, resp, err, tc.key)
		}
	}
	if got := store.Len() - before; got != 1+2+2 {
		t.Fatalf("store grew by %d, want 5 (the first post plus each body's first chunk)", got)
	}
}

// FuzzIngestBody: whatever the body, POST /v1/ingest answers 202, 400,
// 413 or 429 — never a 500 or a panic — and the accepted count it
// reports is exactly how much the store grew.
func FuzzIngestBody(f *testing.F) {
	srv := open(f, Config{IngestBodyCap: 1 << 10, Ingest: ingest.Options{DrainRecords: 4}})
	f.Fuzz(func(t *testing.T, body []byte) {
		before := srv.store.Len()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var ir IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatalf("undecodable response %q: %v", rec.Body, err)
		}
		if got := srv.store.Len() - before; got != ir.Accepted {
			t.Fatalf("response accepted %d but the store grew by %d (body %q)", ir.Accepted, got, body)
		}
	})
}

// TestIngestBodyCap413: a body past the configured cap is rejected with
// 413 and the already-accepted count.
func TestIngestBodyCap413(t *testing.T) {
	store, _ := buildWorld(t)
	ts := serve(t, Config{Store: store, IngestBodyCap: 512})
	var body strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&body, `{"id":"cap-%d","time":"2025-06-03T12:00:00Z","dataset":"ndt","region":"XA-01-001","download_mbps":50}`+"\n", i)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestIngestOverload429 pins end-to-end backpressure: with the drainer
// wedged and the queue full, POST /v1/ingest answers 429 with a
// Retry-After hint, and the shed records never become visible.
func TestIngestOverload429(t *testing.T) {
	store, _ := buildWorld(t)
	before := store.Len()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	store.AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error {
		<-gate
		return nil
	}})
	ts := serve(t, Config{Store: store, Ingest: ingest.Options{QueueRecords: 8}})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	// Saturate: the first batch wedges in the drainer, the second fills
	// the queue. Acks only arrive once the gate opens, so send async.
	inFlight := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			batch := make([]dataset.Record, 4)
			for j := range batch {
				batch[j] = ingestRecord(fmt.Sprintf("fill-%d-%d", i, j), "ndt", "XA-01-001")
			}
			_, err := c.Ingest(ctx, batch)
			inFlight <- err
		}()
	}
	waitForCond(t, func() bool {
		resp, err := http.Get(ts.URL + "/v1/health")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h HealthResponse
		if jsonDecode(resp.Body, &h) != nil || h.Ingest == nil {
			return false
		}
		return h.Ingest.QueuedRecords == 8
	})

	shed := []dataset.Record{ingestRecord("shed-0", "ndt", "XA-01-001")}
	resp, err := c.Ingest(ctx, shed)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("flood response = %v, want 429 APIError", err)
	}
	if resp.Rejected != 1 || resp.Accepted != 0 {
		t.Fatalf("429 body = %+v, want 1 rejected, 0 accepted", resp)
	}

	// Retry-After must accompany the 429 (checked on the raw response).
	raw, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(`{"id":"shed-1","time":"2025-06-03T12:00:00Z","dataset":"ndt","region":"XA-01-001","download_mbps":50}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw flood status = %d, want 429", raw.StatusCode)
	}
	if raw.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}

	release()
	for i := 0; i < 2; i++ {
		if err := <-inFlight; err != nil {
			t.Fatalf("admitted request errored: %v", err)
		}
	}
	if got := store.Len(); got != before+8 {
		t.Fatalf("store grew by %d, want the 8 admitted (shed records must never appear)", got-before)
	}
}

// TestIngestWALFailure500 pins the satellite contract: a WAL append
// failure mid-stream returns 500 and nothing from the failed chunk is
// visible to queries.
func TestIngestWALFailure500(t *testing.T) {
	fs := newGateFS()
	m, err := persist.Open(t.TempDir(), persist.Options{NoSync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := buildWorld(t)
	if err := m.Store().AddBatch(seed.Select(dataset.Filter{})); err != nil {
		t.Fatal(err)
	}
	before := m.Store().Len()
	ts := serve(t, Config{Store: m.Store(), Persist: m})
	c := &Client{BaseURL: ts.URL}

	fs.failWrites.Store(true)
	batch := make([]dataset.Record, 10)
	for i := range batch {
		batch[i] = ingestRecord(fmt.Sprintf("doomed-%d", i), "ndt", "XA-01-001")
	}
	resp, err := c.Ingest(context.Background(), batch)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("WAL-failure response = %v, want 500 APIError", err)
	}
	if resp.Accepted != 0 {
		t.Fatalf("500 body claims %d accepted, want 0", resp.Accepted)
	}
	fs.failWrites.Store(false)
	if got := m.Store().Len(); got != before {
		t.Fatalf("store grew by %d after a failed WAL append; nothing may be partially visible", got-before)
	}
	for _, r := range m.Store().Select(dataset.Filter{}) {
		if strings.HasPrefix(r.ID, "doomed-") {
			t.Fatalf("record %s from the failed chunk is query-visible", r.ID)
		}
	}
}

// TestIngestVsQueryRace floods the live ingest path while score,
// ranking, and health queries run concurrently — through the score
// cache, so ingest invalidation races the cached read path too. Run
// under -race in CI.
func TestIngestVsQueryRace(t *testing.T) {
	store, _ := buildWorld(t)
	ts := serve(t, Config{Store: store, Ingest: ingest.Options{DrainRecords: 32}})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	const writers, readers, rounds = 4, 4, 25
	var wg sync.WaitGroup
	errCh := make(chan error, (writers+readers)*rounds)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				batch := make([]dataset.Record, 4)
				for j := range batch {
					batch[j] = ingestRecord(fmt.Sprintf("race-%d-%d-%d", w, i, j), "ndt", "XA-01-001")
				}
				if _, err := c.Ingest(ctx, batch); err != nil {
					errCh <- err
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var err error
				switch (r + i) % 3 {
				case 0:
					_, err = c.Score(ctx, "XA-01-001")
				case 1:
					_, err = c.Ranking(ctx)
				default:
					_, err = c.Health(ctx)
				}
				if err != nil {
					errCh <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got, want := store.Len(), 90+writers*rounds*4; got != want {
		t.Fatalf("store holds %d records, want %d", got, want)
	}
	// The cache must have converged on the ingested data: a fresh score
	// equals an uncached recompute.
	sc, err := c.Score(ctx, "XA-01-001")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := iqb.DefaultConfig().ScoreRegion(store, "XA-01-001", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Score.IQB != direct.IQB {
		t.Fatalf("cached score %v != direct score %v after concurrent ingest", sc.Score.IQB, direct.IQB)
	}
}

// TestOverloadShedsButNeverLosesAcked is the ISSUE's acceptance
// property: flood a tiny queue through HTTP so some requests shed with
// 429, then reopen the data directory as a crash recovery would and
// assert the recovered store holds exactly the accepted records —
// every 202 survived, no rejected record ever appears.
func TestOverloadShedsButNeverLosesAcked(t *testing.T) {
	dir := t.TempDir()
	m, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Slow the commit path a little so admission actually fills up.
	m.Store().AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error {
		time.Sleep(time.Millisecond)
		return nil
	}})
	// The queue must be smaller than the clients' combined in-flight
	// records (6 clients x 4 records), or admission can never overflow.
	srv := open(t, Config{Store: m.Store(), Persist: m, Ingest: ingest.Options{QueueRecords: 12, DrainRecords: 8}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	const clients, batches, per = 6, 30, 4
	var mu sync.Mutex
	accepted := map[string]bool{}
	rejected := map[string]bool{}
	var sheds int
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]dataset.Record, per)
				ids := make([]string, per)
				for j := range batch {
					ids[j] = fmt.Sprintf("prop-%d-%d-%d", cl, b, j)
					batch[j] = ingestRecord(ids[j], "ndt", "XA-01-001")
				}
				resp, err := c.Ingest(ctx, batch)
				mu.Lock()
				switch {
				case err == nil && resp.Accepted == per:
					for _, id := range ids {
						accepted[id] = true
					}
				case err != nil:
					var ae *APIError
					if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests && resp.Accepted == 0 {
						sheds++
						for _, id := range ids {
							rejected[id] = true
						}
					} else {
						t.Errorf("client %d batch %d: %v", cl, b, err)
					}
				default:
					t.Errorf("client %d batch %d: partial accept %+v without error", cl, b, resp)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if sheds == 0 {
		t.Fatal("flood never shed: the overload path was not exercised (queue too large for the load?)")
	}
	if len(accepted) == 0 {
		t.Fatal("flood accepted nothing: no durability to verify")
	}
	// Drain and stop the pipeline; the manager stays open — reopening
	// the directory in a second manager mirrors the kill-and-restart
	// idiom (the recovered state may not depend on a clean Close).
	if err := srv.ingestq.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopening after flood: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	got := map[string]bool{}
	for _, r := range re.Store().Select(dataset.Filter{}) {
		got[r.ID] = true
	}
	if len(got) != len(accepted) {
		t.Fatalf("recovered %d records, %d were acked", len(got), len(accepted))
	}
	missing := 0
	for id := range accepted {
		if !got[id] {
			missing++
			if missing <= 5 {
				t.Errorf("acked record %s lost across restart", id)
			}
		}
	}
	for id := range rejected {
		if got[id] {
			t.Errorf("rejected record %s appeared after restart", id)
		}
	}
}

// jsonDecode decodes a JSON response body.
func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
