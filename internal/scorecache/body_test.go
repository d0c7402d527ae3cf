package scorecache

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
)

// encScore is a test encoder for ScoreBody that counts its calls.
func encScore(calls *atomic.Int64) func(iqb.Score) ([]byte, error) {
	return func(sc iqb.Score) ([]byte, error) {
		calls.Add(1)
		return json.Marshal(sc)
	}
}

// encRanking is a test encoder for RankingBody that counts its calls.
func encRanking(calls *atomic.Int64) func([]Ranked, int) ([]byte, error) {
	return func(rows []Ranked, omitted int) ([]byte, error) {
		calls.Add(1)
		return json.Marshal(struct {
			Rows    []Ranked
			Omitted int
		}{rows, omitted})
	}
}

// sameSlice reports whether two byte slices share their first byte.
func sameSlice(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestScoreBodyAttachesAtFirstHit: the miss encodes without attaching,
// the first hit attaches, and later hits return the stored bytes
// without encoding.
func TestScoreBodyAttachesAtFirstHit(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)
	var calls atomic.Int64
	enc := encScore(&calls)
	zero := time.Time{}
	k := c.key("XA-01-001", zero, zero)

	miss, out, err := c.ScoreBody("XA-01-001", zero, zero, enc)
	if err != nil || out != Miss || calls.Load() != 1 {
		t.Fatalf("miss: outcome=%v err=%v encodes=%d", out, err, calls.Load())
	}
	if c.entries[k].body != nil {
		t.Fatal("miss attached a body")
	}
	first, out, err := c.ScoreBody("XA-01-001", zero, zero, enc)
	if err != nil || out != Hit || calls.Load() != 2 {
		t.Fatalf("first hit: outcome=%v err=%v encodes=%d", out, err, calls.Load())
	}
	if !sameSlice(c.entries[k].body, first) {
		t.Fatal("first hit did not attach its body")
	}
	stored, out, err := c.ScoreBody("XA-01-001", zero, zero, enc)
	if err != nil || out != Hit || calls.Load() != 2 {
		t.Fatalf("stored hit: outcome=%v err=%v encodes=%d", out, err, calls.Load())
	}
	if !sameSlice(stored, first) || string(miss) != string(first) {
		t.Fatal("stored hit did not serve the attached bytes")
	}

	// Errors pass through unencoded: a no-data entry never gets a body.
	for i := 0; i < 2; i++ {
		if _, _, err := c.ScoreBody("XA-01-009", zero, zero, enc); !errors.Is(err, iqb.ErrNoUsableData) {
			t.Fatalf("empty county: err=%v", err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("no-data reads encoded %d times", calls.Load()-2)
	}
}

// TestScoreBodyDroppedWithEntry: after a batch lands in the window, the
// stored body goes with its entry, and the next hit serves bytes equal
// to a fresh encode of a fresh score.
func TestScoreBodyDroppedWithEntry(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)
	var calls atomic.Int64
	enc := encScore(&calls)
	june1 := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	june2 := june1.AddDate(0, 0, 1)

	for i := 0; i < 3; i++ { // miss, attaching hit, stored hit
		if _, _, err := c.ScoreBody("XA-01-001", june1, june2, enc); err != nil {
			t.Fatal(err)
		}
	}
	before, _, _ := c.ScoreBody("XA-01-001", june1, june2, enc)

	var batch []dataset.Record
	for i := 0; i < 20; i++ {
		r := rec(fmt.Sprintf("slow-%d", i), "ndt", "XA-01-001", june1.Add(18*time.Hour), 2)
		r.LatencyMS = 400
		batch = append(batch, r)
	}
	if err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, out, _ := c.ScoreBody("XA-01-001", june1, june2, enc); out != Miss {
		t.Fatalf("read after invalidation: outcome=%v, want miss", out)
	}
	for i := 0; i < 2; i++ { // attaching hit, stored hit
		after, out, err := c.ScoreBody("XA-01-001", june1, june2, enc)
		if err != nil || out != Hit {
			t.Fatalf("hit %d after invalidation: outcome=%v err=%v", i, out, err)
		}
		fresh, err := iqb.DefaultConfig().ScoreRegion(s, "XA-01-001", june1, june2)
		if err != nil {
			t.Fatal(err)
		}
		if want := scoreJSON(t, fresh); string(after) != want {
			t.Fatalf("hit %d after invalidation served %s, want %s", i, after, want)
		}
		if string(after) == string(before) {
			t.Fatal("invalidating batch left the body unchanged")
		}
	}
}

// TestScoreBodyStatsParity: one request sequence sent through Score and
// through ScoreBody leaves equal hit, miss and shared-flight counts.
func TestScoreBodyStatsParity(t *testing.T) {
	june1 := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	zero := time.Time{}
	type req struct {
		region   string
		from, to time.Time
	}
	seq := []req{
		{"XA-01-001", zero, zero}, {"XA-01-001", zero, zero}, {"XA-01-001", zero, zero},
		{"XA-01", zero, zero}, {"XA-01-001", june1, june1.AddDate(0, 0, 1)},
		{"XA-01-001", june1, june1.AddDate(0, 0, 1)}, {"XA-01-009", zero, zero},
		{"XA-01-009", zero, zero}, {"XA-01", zero, zero}, {"XA", zero, zero},
	}
	stats := func(body bool) Stats {
		s := dataset.NewStore()
		seedCounty(t, s, "XA-01-001", 15)
		seedCounty(t, s, "XA-01-002", 15)
		c := newCache(t, s)
		var calls atomic.Int64
		send := func() {
			for _, r := range seq {
				if body {
					c.ScoreBody(r.region, r.from, r.to, encScore(&calls))
				} else {
					c.Score(r.region, r.from, r.to)
				}
			}
		}
		send()
		if err := s.Add(rec("late", "ndt", "XA-01-002", june1.Add(3*time.Hour), 90)); err != nil {
			t.Fatal(err)
		}
		send()
		// Concurrent cold readers of one key: one computes, the rest
		// join its flight.
		inner := c.scoreFn
		gate := make(chan struct{})
		c.scoreFn = func(region string, from, to time.Time) (iqb.Score, error) {
			<-gate
			return inner(region, from, to)
		}
		const readers = 4
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if body {
					c.ScoreBody("XA-01-002", june1, zero, encScore(&calls))
				} else {
					c.Score("XA-01-002", june1, zero)
				}
			}()
		}
		for {
			c.mu.Lock()
			joined := c.stats.SharedFlights
			c.mu.Unlock()
			if joined == readers-1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(gate)
		wg.Wait()
		st := c.Stats()
		st.ConfigHash = ""
		return st
	}
	viaScore, viaBody := stats(false), stats(true)
	if viaScore != viaBody {
		t.Fatalf("stats differ:\nScore:     %+v\nScoreBody: %+v", viaScore, viaBody)
	}
	if viaScore.Hits == 0 || viaScore.Misses == 0 || viaScore.SharedFlights != 3 {
		t.Fatalf("sequence did not exercise every outcome: %+v", viaScore)
	}
}

// TestScoreBodyConcurrentFirstHit: goroutines that all hit one
// body-less entry at once all return identical bytes, and the entry
// ends with exactly one body — the one every caller returned.
func TestScoreBodyConcurrentFirstHit(t *testing.T) {
	s := dataset.NewStore()
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)
	zero := time.Time{}
	if _, out, err := c.Score("XA-01-001", zero, zero); err != nil || out != Miss {
		t.Fatalf("prime: outcome=%v err=%v", out, err)
	}

	const readers = 8
	var entered, finished atomic.Int64
	release := make(chan struct{})
	// Every reader reaches the encoder before any can attach, so all
	// of them race to attach their own bytes.
	enc := func(sc iqb.Score) ([]byte, error) {
		entered.Add(1)
		<-release
		return json.Marshal(sc)
	}
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer finished.Add(1)
			b, out, err := c.ScoreBody("XA-01-001", zero, zero, enc)
			if err != nil || out != Hit {
				t.Errorf("reader %d: outcome=%v err=%v", i, out, err)
			}
			bodies[i] = b
		}(i)
	}
	for entered.Load()+finished.Load() < readers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if entered.Load() != readers {
		t.Fatalf("%d of %d readers of a body-less entry skipped the encoder", readers-entered.Load(), readers)
	}

	c.mu.Lock()
	stored := c.entries[c.key("XA-01-001", zero, zero)].body
	c.mu.Unlock()
	if stored == nil {
		t.Fatal("no body attached")
	}
	for i, b := range bodies {
		if !sameSlice(b, stored) {
			t.Fatalf("reader %d returned bytes other than the attached body", i)
		}
	}
	// The next hit serves the attached body without encoding.
	b, _, err := c.ScoreBody("XA-01-001", zero, zero, func(iqb.Score) ([]byte, error) {
		return nil, errors.New("encoded a stored body")
	})
	if err != nil || !sameSlice(b, stored) {
		t.Fatalf("stored hit: err=%v", err)
	}
}

// TestRankingBodyReusedOnlyWithoutRepair: the ranking body is reused
// while no call repairs a row, re-encoded after any repair (including
// one made by Ranking), and a body with a failed county is never kept.
func TestRankingBodyReusedOnlyWithoutRepair(t *testing.T) {
	s := dataset.NewStore()
	counties := []string{"XA-01-001", "XA-01-002"}
	seedCounty(t, s, "XA-01-001", 15)
	seedCounty(t, s, "XA-01-002", 15)
	c := newCache(t, s)
	var calls atomic.Int64
	enc := encRanking(&calls)
	want := func() string {
		t.Helper()
		rows, omitted := c.Ranking(counties)
		b, err := encRanking(new(atomic.Int64))(rows, omitted)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	body := func(wantCalls int64) []byte {
		t.Helper()
		b, err := c.RankingBody(counties, enc)
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != wantCalls {
			t.Fatalf("encodes = %d, want %d", calls.Load(), wantCalls)
		}
		if got, w := string(b), want(); got != w {
			t.Fatalf("ranking body = %s, want %s", got, w)
		}
		return b
	}

	cold := body(1)
	if warm := body(1); !sameSlice(warm, cold) {
		t.Fatal("unrepaired view was not served from its stored body")
	}

	// A batch into one county: the repair re-encodes, once.
	if err := s.Add(rec("dip", "ndt", "XA-01-001", time.Date(2025, 6, 1, 13, 0, 0, 0, time.UTC), 1)); err != nil {
		t.Fatal(err)
	}
	repaired := body(2)
	if sameSlice(repaired, cold) {
		t.Fatal("repaired view served the pre-repair body")
	}
	body(2)

	// A repair made through Ranking drops the stored body too.
	if err := s.Add(rec("dip2", "ndt", "XA-01-002", time.Date(2025, 6, 1, 13, 0, 0, 0, time.UTC), 1)); err != nil {
		t.Fatal(err)
	}
	c.Ranking(counties)
	body(3)

	// A failing county is retried, and so re-encoded, on every call: a
	// body with omitted > 0 is never reused.
	inner := c.scoreFn
	var fail atomic.Bool
	fail.Store(true)
	c.scoreFn = func(region string, from, to time.Time) (iqb.Score, error) {
		if fail.Load() && region == "XA-01-002" {
			return iqb.Score{}, errors.New("synthetic scoring failure")
		}
		return inner(region, from, to)
	}
	if err := s.Add(rec("dip3", "ndt", "XA-01-002", time.Date(2025, 6, 1, 14, 0, 0, 0, time.UTC), 1)); err != nil {
		t.Fatal(err)
	}
	var failed atomic.Int64
	for i := 0; i < 3; i++ {
		b, err := c.RankingBody(counties, encRanking(&failed))
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Omitted int }
		if err := json.Unmarshal(b, &got); err != nil || got.Omitted != 1 {
			t.Fatalf("call %d with a failing county: omitted=%d err=%v", i, got.Omitted, err)
		}
	}
	if failed.Load() != 3 {
		t.Fatalf("failing-county rankings encoded %d times in 3 calls", failed.Load())
	}
	c.rankMu.Lock()
	kept := c.rankBody
	c.rankMu.Unlock()
	if kept != nil {
		t.Fatal("a ranking with an omitted county was kept")
	}

	// Once the failure clears, the county rejoins and the body is kept.
	fail.Store(false)
	calls.Store(3)
	recovered := body(4)
	if again := body(4); !sameSlice(again, recovered) {
		t.Fatal("recovered view was not served from its stored body")
	}
}

// TestRankingBodyUnderIngestMatchesRank: four goroutines call RankingBody
// while a writer ingests batches into random counties. Once the writer
// stops, one more RankingBody equals, byte for byte, Rank over fresh
// scores under the same encoder, and every repair is accounted for: a
// county is rescored at the cold fill, after a commit into it, and after
// a rescore that could not be retained.
func TestRankingBodyUnderIngestMatchesRank(t *testing.T) {
	const batches = 20
	counties := []string{"XA-01-001", "XA-01-002", "XA-01-003", "XA-02-001"}
	s := dataset.NewStore()
	for _, county := range counties[:3] {
		seedCounty(t, s, county, 5) // XA-02-001 starts with no data
	}
	c := newCache(t, s)
	enc := encRanking(new(atomic.Int64))

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.RankingBody(counties, enc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rnd := rand.New(rand.NewSource(1))
	ts := time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	var ingestErr error
	for b := 0; b < batches && ingestErr == nil; b++ {
		county := counties[rnd.Intn(len(counties))]
		var batch []dataset.Record
		for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
			for i := 0; i < 3; i++ {
				batch = append(batch, rec(fmt.Sprintf("w%d-%s-%d", b, ds, i), ds, county, ts, float64(1+rnd.Intn(400))))
			}
		}
		ingestErr = s.AddBatch(batch)
	}
	close(stop)
	readers.Wait()
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}

	got, err := c.RankingBody(counties, enc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := iqb.DefaultConfig()
	want, err := enc(Rank(counties, func(region string, from, to time.Time) (iqb.Score, error) {
		return cfg.ScoreRegion(s, region, from, to)
	}, testLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("ranking body after ingest:\n got %s\nwant %s", got, want)
	}
	// Only rankings score here, so Uncacheable counts the rescores that
	// were not retained: those made while a batch into the county was in
	// flight or committed.
	st := c.Stats()
	if bound := uint64(len(counties)) + st.Invalidations + st.Uncacheable; st.RankingRepairs > bound {
		t.Fatalf("%d repairs > %d counties + %d single-county commits + %d not retained",
			st.RankingRepairs, len(counties), st.Invalidations, st.Uncacheable)
	}
}

// TestRankingBodyReleasesLockOnPanic: a scoring panic during a ranking
// reaches RankingBody's caller without leaving the ranking lock held,
// so the next ranking is served.
func TestRankingBodyReleasesLockOnPanic(t *testing.T) {
	s := dataset.NewStore()
	counties := []string{"XA-01-001"}
	seedCounty(t, s, "XA-01-001", 15)
	c := newCache(t, s)
	enc := encRanking(new(atomic.Int64))
	inner := c.scoreFn
	c.scoreFn = func(string, time.Time, time.Time) (iqb.Score, error) {
		panic("synthetic scoring panic")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the scoring panic did not reach the caller")
			}
		}()
		c.RankingBody(counties, enc)
	}()
	c.scoreFn = inner

	done := make(chan error, 1)
	go func() {
		_, err := c.RankingBody(counties, enc)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ranking blocked after a scoring panic")
	}
}
