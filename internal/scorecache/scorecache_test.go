package scorecache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
	"iqb/internal/persist"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// rec builds a fully populated record for one dataset/region.
func rec(id, ds, region string, ts time.Time, down float64) dataset.Record {
	r := dataset.NewRecord(id, ds, region, ts)
	r.DownloadMbps = down
	r.UploadMbps = down / 4
	r.LatencyMS = 15
	r.LossFrac = 0.001
	return r
}

// seedCounty fills one county with n good records per dataset.
func seedCounty(t testing.TB, s *dataset.Store, county string, n int) {
	t.Helper()
	ts := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	var batch []dataset.Record
	for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
		for i := 0; i < n; i++ {
			batch = append(batch, rec(fmt.Sprintf("%s-%s-%d", county, ds, i), ds, county, ts, 200))
		}
	}
	if err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
}

func newCache(t testing.TB, s *dataset.Store) *Cache {
	t.Helper()
	c, err := New(s, iqb.DefaultConfig(), testLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func scoreJSON(t testing.TB, sc iqb.Score) string {
	t.Helper()
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestScoreHitMissAndPreciseInvalidation: a second read hits; ingesting
// into one county evicts that county and its ancestors but leaves the
// sibling county's entry alone.
func TestScoreHitMissAndPreciseInvalidation(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	seedCounty(t, s, "XA-01-002", 15)
	c := newCache(t, s)

	zero := time.Time{}
	s1, out, err := c.Score("XA-01-001", zero, zero)
	if err != nil || out != Miss {
		t.Fatalf("first read: outcome=%v err=%v", out, err)
	}
	if _, out, _ = c.Score("XA-01-001", zero, zero); out != Hit {
		t.Fatalf("second read outcome = %v, want hit", out)
	}
	if _, out, _ = c.Score("XA-01-002", zero, zero); out != Miss {
		t.Fatalf("sibling first read outcome = %v", out)
	}
	// Ancestor subtree scores cache too.
	if _, out, _ = c.Score("XA-01", zero, zero); out != Miss {
		t.Fatalf("state first read outcome = %v", out)
	}

	// Ingest into county 001: county 001 and the state are invalidated,
	// county 002 survives.
	if err := s.AddBatch([]dataset.Record{rec("new", "ndt", "XA-01-001", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC), 5)}); err != nil {
		t.Fatal(err)
	}
	s1b, out, err := c.Score("XA-01-001", zero, zero)
	if err != nil || out != Miss {
		t.Fatalf("post-ingest county read: outcome=%v err=%v", out, err)
	}
	if scoreJSON(t, s1) == scoreJSON(t, s1b) {
		t.Fatal("county score unchanged by an ingested bad record")
	}
	if _, out, _ = c.Score("XA-01", zero, zero); out != Miss {
		t.Fatalf("state read after descendant ingest = %v, want miss", out)
	}
	if _, out, _ = c.Score("XA-01-002", zero, zero); out != Hit {
		t.Fatalf("sibling read after unrelated ingest = %v, want hit", out)
	}

	st := c.Stats()
	if st.Evictions == 0 || st.Invalidations != 1 || st.ConfigHash == "" {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWindowPreciseInvalidation: a batch only evicts cached windows its
// record timestamps fall into.
func TestWindowPreciseInvalidation(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15) // records at 2025-06-01 12:00
	c := newCache(t, s)

	june1 := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	june2 := june1.AddDate(0, 0, 1)
	june3 := june1.AddDate(0, 0, 2)
	if _, out, err := c.Score("XA-01-001", june1, june2); err != nil || out != Miss {
		t.Fatalf("windowed read: outcome=%v err=%v", out, err)
	}
	if _, out, _ := c.Score("XA-01-001", june1, june2); out != Hit {
		t.Fatal("windowed entry not cached")
	}

	// New record on June 2: outside the [June 1, June 2) window.
	if err := s.Add(rec("later", "ndt", "XA-01-001", june2.Add(6*time.Hour), 50)); err != nil {
		t.Fatal(err)
	}
	if _, out, _ := c.Score("XA-01-001", june1, june2); out != Hit {
		t.Fatal("batch outside the window evicted it")
	}
	// A window containing June 2 must miss.
	if _, out, err := c.Score("XA-01-001", june1, june3); err != nil || out != Miss {
		t.Fatalf("covering window: outcome=%v err=%v", out, err)
	}
}

// TestNoUsableDataIsCached: empty regions resolve from cache instead of
// rescoring on every request.
func TestNoUsableDataIsCached(t *testing.T) {
	s := dataset.NewStore()
	c := newCache(t, s)
	zero := time.Time{}
	_, out, err := c.Score("XZ-99", zero, zero)
	if !errors.Is(err, iqb.ErrNoUsableData) || out != Miss {
		t.Fatalf("empty region: outcome=%v err=%v", out, err)
	}
	_, out, err = c.Score("XZ-99", zero, zero)
	if !errors.Is(err, iqb.ErrNoUsableData) || out != Hit {
		t.Fatalf("empty region second read: outcome=%v err=%v", out, err)
	}
}

// TestSingleflight: concurrent cold misses for one key run the scoring
// function once; everyone else joins the flight.
func TestSingleflight(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)

	var mu sync.Mutex
	computes := 0
	inner := c.scoreFn
	gate := make(chan struct{})
	c.scoreFn = func(region string, from, to time.Time) (iqb.Score, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		<-gate
		return inner(region, from, to)
	}

	const readers = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, out, err := c.Score("XA-01-001", time.Time{}, time.Time{})
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = out
		}(i)
	}
	// Let the followers pile onto the flight, then release it.
	for {
		c.mu.Lock()
		n := c.stats.SharedFlights
		c.mu.Unlock()
		if n == readers-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("scoring ran %d times for %d concurrent readers", computes, readers)
	}
	misses, shared := 0, 0
	for _, out := range outcomes {
		switch out {
		case Miss:
			misses++
		case SharedFlight:
			shared++
		}
	}
	if misses != 1 || shared != readers-1 {
		t.Fatalf("outcomes = %v", outcomes)
	}
}

// TestVetoedBatchLeavesCacheUntouched: a batch a hook vetoes never
// reaches the store, so the cache's entries and counters stay as they
// were and the next read hits.
func TestVetoedBatchLeavesCacheUntouched(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)
	zero := time.Time{}
	if _, out, err := c.Score("XA-01-001", zero, zero); err != nil || out != Miss {
		t.Fatalf("first read: outcome=%v err=%v", out, err)
	}
	before := c.Stats()

	boom := errors.New("disk full")
	remove := s.AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error { return boom }})
	if err := s.Add(rec("vetoed", "ndt", "XA-01-001", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC), 5)); !errors.Is(err, boom) {
		t.Fatalf("expected veto, got %v", err)
	}
	remove()

	if after := c.Stats(); after != before {
		t.Fatalf("vetoed batch changed the cache: %+v, was %+v", after, before)
	}
	if _, out, err := c.Score("XA-01-001", zero, zero); err != nil || out != Hit {
		t.Fatalf("post-veto read: outcome=%v err=%v", out, err)
	}
}

// TestRankingRepairsParkedCountyOnce: a batch into a county that waits
// in a later observer's Ingest hook is not yet visible, so the ranking's
// rescore of that county is of the store as it is and is retained: a
// second ranking rescores nothing. The batch's commit evicts the county
// and the next ranking rescores it exactly once.
func TestRankingRepairsParkedCountyOnce(t *testing.T) {
	s := dataset.NewStore()
	counties := []string{"XA-01-001", "XA-01-002"}
	for _, county := range counties {
		seedCounty(t, s, county, 15)
	}
	c := newCache(t, s)
	c.Ranking(counties)
	// A commit evicts county 001's entry.
	june2 := time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	if err := s.Add(rec("evict", "ndt", "XA-01-001", june2, 150)); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	parked := make(chan struct{})
	remove := s.AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error {
		close(parked)
		<-hold
		return nil
	}})
	done := make(chan error, 1)
	go func() { done <- s.Add(rec("parked", "ndt", "XA-01-001", june2, 5)) }()
	<-parked
	var release sync.Once
	commit := func() {
		release.Do(func() {
			close(hold)
			if err := <-done; err != nil {
				t.Error(err)
			}
			remove()
		})
	}
	// A failing check must not leave the batch parked: the cache's
	// Close would wait for it.
	defer commit()

	repairs := func(step func()) uint64 {
		before := c.Stats().RankingRepairs
		step()
		return c.Stats().RankingRepairs - before
	}
	rank := func() { c.Ranking(counties) }
	if n := repairs(rank); n != 1 {
		t.Fatalf("first ranking while parked rescored %d counties, want 1", n)
	}
	if n := repairs(rank); n != 0 {
		t.Fatalf("second ranking while parked rescored %d counties, want 0", n)
	}
	if n := repairs(commit); n != 0 {
		t.Fatalf("commit rescored %d counties", n)
	}
	if n := repairs(rank); n != 1 {
		t.Fatalf("ranking after the commit rescored %d counties, want 1", n)
	}
	want, _ := Rank(counties, c.scoreFn, testLogger())
	if got, _ := c.Ranking(counties); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ranking %v, uncached %v", got, want)
	}
}

// TestWindowBeyondUnixNanoRange: a window is keyed and evicted by its
// bounds' instants for every year a record may carry, including those
// outside the 1678–2262 span UnixNano holds: a batch into the window
// evicts it, and the next read equals a fresh score.
func TestWindowBeyondUnixNanoRange(t *testing.T) {
	s := dataset.NewStore()
	county := "XA-01-001"
	at := time.Date(2250, 6, 1, 0, 0, 0, 0, time.UTC)
	var batch []dataset.Record
	for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
		for i := 0; i < 15; i++ {
			batch = append(batch, rec(fmt.Sprintf("%s-%d", ds, i), ds, county, at, 200))
		}
	}
	if err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	c := newCache(t, s)
	from, to := time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, out, err := c.Score(county, from, to); err != nil || out != Miss {
		t.Fatalf("first read: outcome=%v err=%v", out, err)
	}
	if _, out, _ := c.Score(county, from, to); out != Hit {
		t.Fatalf("second read outcome = %v, want hit", out)
	}
	var bad []dataset.Record
	for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
		for i := 0; i < 40; i++ {
			r := rec(fmt.Sprintf("bad-%s-%d", ds, i), ds, county, at, 1)
			r.LatencyMS = 900
			bad = append(bad, r)
		}
	}
	if err := s.AddBatch(bad); err != nil {
		t.Fatal(err)
	}
	got, out, err := c.Score(county, from, to)
	if err != nil || out != Miss {
		t.Fatalf("read after a batch into the window: outcome=%v err=%v, want miss", out, err)
	}
	fresh, err := iqb.DefaultConfig().ScoreRegion(s, county, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if scoreJSON(t, got) != scoreJSON(t, fresh) {
		t.Fatal("cached score differs from a fresh one")
	}
}

// TestFlightResolvesOnPanic: a panicking scoring function must not
// leave the flight registered forever — followers get an error, the
// panic propagates to the leader's caller (the HTTP layer recovers
// panics, so the process survives), and the key works again afterwards.
func TestFlightResolvesOnPanic(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)

	inner := c.scoreFn
	joined := make(chan struct{})
	c.scoreFn = func(region string, from, to time.Time) (iqb.Score, error) {
		<-joined // wait until a follower is on the flight
		panic("synthetic scoring panic")
	}

	follower := make(chan error, 1)
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.Score("XA-01-001", time.Time{}, time.Time{})
		leader <- nil
	}()
	// Wait for the leader's flight, join it, then release the panic.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, _, err := c.Score("XA-01-001", time.Time{}, time.Time{})
		follower <- err
	}()
	for {
		c.mu.Lock()
		n := c.stats.SharedFlights
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(joined)

	if rec := <-leader; rec == nil {
		t.Fatal("leader did not observe the panic")
	}
	if err := <-follower; !errors.Is(err, errScorePanic) {
		t.Fatalf("follower err = %v, want errScorePanic", err)
	}

	// The key recovers: a fresh compute succeeds and is retained.
	c.scoreFn = inner
	if _, out, err := c.Score("XA-01-001", time.Time{}, time.Time{}); err != nil || out != Miss {
		t.Fatalf("post-panic read: outcome=%v err=%v", out, err)
	}
	if _, out, _ := c.Score("XA-01-001", time.Time{}, time.Time{}); out != Hit {
		t.Fatal("post-panic entry not retained")
	}
}

// TestEntryCapEvictsWindowedFirst: the cache cannot grow without bound
// on client-chosen windows, and making room sacrifices windowed entries
// before the unbounded ones that back the ranking.
func TestEntryCapEvictsWindowedFirst(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)
	c.mu.Lock()
	c.maxEntries = 3
	c.mu.Unlock()

	zero := time.Time{}
	if _, out, err := c.Score("XA-01-001", zero, zero); err != nil || out != Miss {
		t.Fatalf("unbounded read: outcome=%v err=%v", out, err)
	}
	base := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		from := base.Add(time.Duration(i) * time.Minute)
		if _, _, err := c.Score("XA-01-001", from, base.AddDate(0, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 3 {
		t.Fatalf("entries = %d, want <= cap 3", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("cap produced no evictions")
	}
	// The unbounded entry survived the windowed churn.
	if _, out, _ := c.Score("XA-01-001", zero, zero); out != Hit {
		t.Fatalf("unbounded entry evicted before windowed ones: outcome=%v", out)
	}
}

// TestRankingIncrementalRepair: a ranking is cached; ingesting into one
// county rescored exactly that county, and the order is repaired.
func TestRankingIncrementalRepair(t *testing.T) {
	s := dataset.NewStore()
	counties := []string{"XA-01-001", "XA-01-002", "XA-01-003"}
	seedCounty(t, s, "XA-01-001", 15)
	seedCounty(t, s, "XA-01-002", 15)
	// 003 stays empty: no usable data, excluded from rows.
	c := newCache(t, s)

	rows, omitted := c.Ranking(counties)
	if omitted != 0 || len(rows) != 2 {
		t.Fatalf("rows=%d omitted=%d", len(rows), omitted)
	}
	repairs0 := c.Stats().RankingRepairs
	if repairs0 != 3 {
		t.Fatalf("cold ranking repaired %d rows, want 3", repairs0)
	}

	// Unchanged store: no repairs, same rows.
	rows2, _ := c.Ranking(counties)
	if c.Stats().RankingRepairs != repairs0 {
		t.Fatalf("warm ranking repaired rows: %+v", c.Stats())
	}
	if fmt.Sprint(rows2) != fmt.Sprint(rows) {
		t.Fatal("warm ranking differs from cold")
	}

	// Degrade county 001 hard enough to flip the order.
	ts := time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	var bad []dataset.Record
	for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
		for i := 0; i < 40; i++ {
			r := rec(fmt.Sprintf("bad-%s-%d", ds, i), ds, "XA-01-001", ts, 1)
			r.LatencyMS = 900
			r.LossFrac = 0.2
			bad = append(bad, r)
		}
	}
	if err := s.AddBatch(bad); err != nil {
		t.Fatal(err)
	}
	rows3, _ := c.Ranking(counties)
	if got := c.Stats().RankingRepairs - repairs0; got != 1 {
		t.Fatalf("repaired %d rows after single-county ingest, want 1", got)
	}
	if rows3[0].Region != "XA-01-002" || rows3[1].Region != "XA-01-001" {
		t.Fatalf("order not repaired: %v then %v", rows3[0].Region, rows3[1].Region)
	}

	// Filling the empty county pulls it into the ranking.
	seedCounty(t, s, "XA-01-003", 15)
	rows4, _ := c.Ranking(counties)
	if len(rows4) != 3 {
		t.Fatalf("rows after filling empty county = %d", len(rows4))
	}
}

// TestRankingOmitsFailedRegion: a county whose scoring fails with a
// non-ErrNoUsableData error is skipped and counted, not fatal, and is
// retried on the next request.
func TestRankingOmitsFailedRegion(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	seedCounty(t, s, "XA-01-002", 15)
	c := newCache(t, s)

	inner := c.scoreFn
	fail := true
	c.scoreFn = func(region string, from, to time.Time) (iqb.Score, error) {
		if fail && region == "XA-01-002" {
			return iqb.Score{}, errors.New("synthetic scoring failure")
		}
		return inner(region, from, to)
	}

	rows, omitted := c.Ranking([]string{"XA-01-001", "XA-01-002"})
	if omitted != 1 || len(rows) != 1 || rows[0].Region != "XA-01-001" {
		t.Fatalf("rows=%v omitted=%d", rows, omitted)
	}
	// Once the failure clears, the county rejoins.
	fail = false
	rows, omitted = c.Ranking([]string{"XA-01-001", "XA-01-002"})
	if omitted != 0 || len(rows) != 2 {
		t.Fatalf("after recovery rows=%d omitted=%d", len(rows), omitted)
	}
}

// TestWALAndCacheHooksCoexist is the acceptance check for the hook
// chain: the persistence layer's WAL tee and the score cache's
// invalidation hooks live on one store, and both keep working — every
// batch lands durably in the WAL and still invalidates the cache.
func TestWALAndCacheHooksCoexist(t *testing.T) {
	m, err := persist.Open(t.TempDir(), persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.Store()
	c := newCache(t, s)

	seedCounty(t, s, "XA-01-001", 15)
	if got, want := m.Status().WALRecords, uint64(s.Len()); got != want {
		t.Fatalf("WAL holds %d records, store %d", got, want)
	}

	zero := time.Time{}
	before, out, err := c.Score("XA-01-001", zero, zero)
	if err != nil || out != Miss {
		t.Fatalf("first read: outcome=%v err=%v", out, err)
	}
	if _, out, _ = c.Score("XA-01-001", zero, zero); out != Hit {
		t.Fatal("cache not retaining on a WAL-backed store")
	}

	// One more batch: teed to the WAL *and* invalidating the cache.
	walBefore := m.Status().WALRecords
	if err := s.Add(rec("both", "ndt", "XA-01-001", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC), 2)); err != nil {
		t.Fatal(err)
	}
	if got := m.Status().WALRecords; got != walBefore+1 {
		t.Fatalf("WAL records = %d, want %d", got, walBefore+1)
	}
	after, out, err := c.Score("XA-01-001", zero, zero)
	if err != nil || out != Miss {
		t.Fatalf("post-ingest read: outcome=%v err=%v", out, err)
	}
	if scoreJSON(t, before) == scoreJSON(t, after) {
		t.Fatal("cache served the pre-ingest score after a WAL-teed batch")
	}
}

// TestCacheNeverServesPartialBatch is the ingest-during-read race test:
// concurrent writers stream fixed-size batches into counties while
// readers hammer the cache's Score and Ranking and the uncached scoring
// paths — ScoreRegion over the cell index, ScoreRegion over a window
// (a record gather) and ScoreWindows. Every batch carries batchSize
// records per dataset for one county, so a score of a whole number of
// batches shows, in every dataset cell of the county, the same sample
// count, a multiple of batchSize. Any score — cache hit, miss or
// uncached — that shows otherwise read a partial batch. After the
// writers drain, every cached answer must equal fresh scoring.
func TestCacheNeverServesPartialBatch(t *testing.T) {
	const (
		batchSize = 7
		batches   = 150
	)
	counties := []string{"XA-01-001", "XA-01-002"}
	datasets := []string{"ndt", "cloudflare", "ookla"}
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	from, to := ts.Add(-time.Hour), ts.Add(time.Hour)

	s := dataset.NewStore()
	c := newCache(t, s)
	cfg := iqb.DefaultConfig()

	var partial sync.Mutex
	seen := map[string]int{}
	check := func(sc iqb.Score, where string) {
		for _, uc := range sc.UseCases {
			for _, rq := range uc.Requirements {
				for _, cell := range rq.Datasets {
					if cell.Samples%batchSize != 0 || cell.Samples != rq.Datasets[0].Samples {
						partial.Lock()
						if seen[where]++; seen[where] == 1 {
							t.Errorf("%s: %s/%s: %s has %d samples, %s %d — partial batch observed",
								where, uc.Name, rq.Name, cell.Dataset, cell.Samples, rq.Datasets[0].Dataset, rq.Datasets[0].Samples)
						}
						partial.Unlock()
						return
					}
				}
			}
		}
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: one per county, fixed-size batches.
	for _, county := range counties {
		writers.Add(1)
		go func(county string) {
			defer writers.Done()
			for b := 0; b < batches; b++ {
				var batch []dataset.Record
				for _, ds := range datasets {
					for i := 0; i < batchSize; i++ {
						batch = append(batch, rec(fmt.Sprintf("%s-%s-%d-%d", county, ds, b, i), ds, county, ts, 100+float64(b)))
					}
				}
				if err := s.AddBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(county)
	}
	reader := func(read func(county string)) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, county := range counties {
					read(county)
				}
			}
		}()
	}
	reader(func(county string) {
		if sc, out, err := c.Score(county, time.Time{}, time.Time{}); err == nil {
			check(sc, "cache "+out.String())
		}
		if county == counties[0] {
			rows, _ := c.Ranking(counties)
			for _, row := range rows {
				check(row.Score, "ranking")
			}
		}
	})
	reader(func(county string) {
		if sc, err := cfg.ScoreRegion(s, county, time.Time{}, time.Time{}); err == nil {
			check(sc, "uncached cells")
		}
	})
	reader(func(county string) {
		if sc, err := cfg.ScoreRegion(s, county, from, to); err == nil {
			check(sc, "uncached window")
		}
	})
	reader(func(county string) {
		pts, err := cfg.ScoreWindows(s, county, from, to, time.Hour)
		if err != nil {
			t.Error(err)
			return
		}
		for _, pt := range pts {
			if !pt.NoData {
				check(pt.Score, "uncached windows")
			}
		}
	})
	writers.Wait()
	close(stop)
	readers.Wait()

	// Quiesced store: every cached answer must now equal a fresh uncached
	// computation, byte for byte — a retained partial-batch score would
	// fail here.
	for _, county := range append([]string{"XA-01", "XA"}, counties...) {
		cached, _, err := c.Score(county, time.Time{}, time.Time{})
		if err != nil {
			t.Fatalf("%s: %v", county, err)
		}
		check(cached, "final "+county)
		fresh, err := cfg.ScoreRegion(s, county, time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if scoreJSON(t, cached) != scoreJSON(t, fresh) {
			t.Fatalf("%s: cached score differs from fresh computation", county)
		}
	}
	rows, omitted := c.Ranking(counties)
	if omitted != 0 || len(rows) != len(counties) {
		t.Fatalf("final ranking rows=%d omitted=%d", len(rows), omitted)
	}
	for _, row := range rows {
		check(row.Score, "final ranking "+row.Region)
	}
	if len(seen) > 0 {
		t.Logf("partial reads by reader: %v", seen)
	}
}
