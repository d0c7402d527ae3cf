package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"iqb/internal/dataset"
)

// These tests make the durability contract executable: faults injected
// under the WAL (faultfs_test.go) stand in for dying disks and killed
// processes, and recovery afterwards must restore exactly what the
// contract promises — every acknowledged batch, whole batches only,
// nothing from outside the submitted workload.

// TestFailedSyncFailsOnlyItsAppend: a failed fsync fails its own
// append — rolled back, unacknowledged, unaccounted — and no other: an
// append waiting behind it on l.mu writes its own frame and syncs it.
// The log keeps appending once the fault clears.
func TestFailedSyncFailsOnlyItsAppend(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := OpenLog(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	fs.failNextSyncs(1)
	gate, failed := parkedAppend(t, l, fs, walBatch("failed", 2))
	next := make(chan error, 1)
	go func() { next <- l.Append(walBatch("next", 3)) }()
	stillBlocked(t, "the append behind the failing sync", next)
	close(gate.release)
	if err := <-failed; !errors.Is(err, errSyncInjected) {
		t.Fatalf("append whose sync failed = %v, want the injected sync failure", err)
	}
	if err := <-next; err != nil {
		t.Fatalf("append behind the failed sync: %v", err)
	}
	if got := l.Offset(); got != 3 {
		t.Fatalf("offset = %d, want 3 (the failed append rolled back)", got)
	}

	// The same log appends again once the fault clears.
	fs.failNextSyncs(1)
	if err := l.Append(walBatch("failed-again", 1)); !errors.Is(err, errSyncInjected) {
		t.Fatalf("append with a failing sync = %v, want the injected sync failure", err)
	}
	fs.clearFaults()
	if err := l.Append(walBatch("after", 4)); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after injected sync failures: %v", err)
	}
	defer l2.Close()
	if got := l2.Offset(); got != 7 {
		t.Fatalf("reopened offset = %d, want 7 (only the acked batches)", got)
	}
	got := replayAll(t, l2, 0)
	if len(got) != 2 || got[0][0].ID != "next-0" || got[1][0].ID != "after-0" {
		t.Fatalf("replay after reopen returned %d batches, want the 2 acked ones in order", len(got))
	}
}

// TestKillPointMidFrameReopensRecoverable: a kill-point that tears a
// frame mid-write must surface an error to the writer, and a reopen
// (the "new process") must truncate the tear and keep every
// acknowledged batch.
func TestKillPointMidFrameReopensRecoverable(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := OpenLog(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("acked", 3)); err != nil {
		t.Fatal(err)
	}
	fs.killAfterBytes(7) // the next frame dies 7 bytes in: a torn header
	if err := l.Append(walBatch("lost", 2)); !errors.Is(err, errKilled) {
		t.Fatalf("append across the kill-point = %v, want errKilled", err)
	}
	l.Close() // the dead process's descriptor going away

	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer l2.Close()
	if !l2.TornTail() {
		t.Fatal("kill mid-frame not reported as a torn tail")
	}
	if got := l2.Offset(); got != 3 {
		t.Fatalf("offset after reopen = %d, want 3 (acked batch only)", got)
	}
	if got := replayAll(t, l2, 0); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("replay after kill returned %v batches", len(got))
	}
	if err := l2.Append(walBatch("post", 1)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestWedgedLogFailsLoudlyUntilReopen: when a partial write cannot be
// rolled back (truncate fails too), the log must refuse further appends
// and compactions — appending past the tear would strand durable frames
// behind it, to be silently dropped by the next recovery's tail
// truncation. A reopen truncates the tear and recovers.
func TestWedgedLogFailsLoudlyUntilReopen(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := OpenLog(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("acked", 2)); err != nil {
		t.Fatal(err)
	}
	// A kill tears the next frame AND takes the rollback truncate with
	// it — the exact shape of a process dying mid-append.
	fs.killAfterBytes(5)
	if err := l.Append(walBatch("torn", 2)); !errors.Is(err, errKilled) {
		t.Fatalf("torn append = %v, want errKilled", err)
	}
	if err := l.Append(walBatch("next", 1)); !errors.Is(err, errWedged) {
		t.Fatalf("append on a wedged log = %v, want errWedged", err)
	}
	if err := l.Compact(1); !errors.Is(err, errWedged) {
		t.Fatalf("compact on a wedged log = %v, want errWedged", err)
	}
	l.Close()

	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen of a wedged log: %v", err)
	}
	defer l2.Close()
	if !l2.TornTail() || l2.Offset() != 2 {
		t.Fatalf("reopen: torn=%v offset=%d, want torn tail and the acked batch", l2.TornTail(), l2.Offset())
	}
}

// TestFailedSyncRollbackFailureWedgesLog: a frame whose fsync failed
// and whose rollback truncate also failed has unknown durability — a
// failed fsync may have dropped the frame's pages even though every
// later fsync would succeed, so appending past it would park acked
// frames behind a possible hole for the next recovery to truncate
// away (and a rotation would seal a segment whose scanned record count
// contradicts the next segment's offset name). The log must wedge, and
// a reopen must recover whatever actually survived — acked batches
// always, the unacked orphan only if its bytes made it.
func TestFailedSyncRollbackFailureWedgesLog(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := OpenLog(dir, Options{SegmentBytes: 64, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("a", 2)); err != nil {
		t.Fatal(err)
	}
	fs.failNextSyncs(1)
	fs.setFailTruncate(true)
	if err := l.Append(walBatch("orphan", 2)); !errors.Is(err, errSyncInjected) {
		t.Fatalf("append with failing sync+truncate = %v, want injected sync error", err)
	}
	fs.clearFaults()
	// The log refuses to append or compact past the unrollbackable
	// frame — no acked data may ever land behind it.
	if err := l.Append(walBatch("b", 2)); !errors.Is(err, errWedged) {
		t.Fatalf("append after failed rollback = %v, want errWedged", err)
	}
	if err := l.Compact(2); !errors.Is(err, errWedged) {
		t.Fatalf("compact after failed rollback = %v, want errWedged", err)
	}
	l.Close()

	// Reopen rescans the surviving bytes: the acked batch, plus the
	// orphan (whose write did reach the test filesystem) as an
	// unacked-but-durable batch — the shape recovery already tolerates.
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after wedge: %v", err)
	}
	defer l2.Close()
	if got := l2.Offset(); got != 4 {
		t.Fatalf("offset = %d, want 4 (acked batch + surviving orphan)", got)
	}
	if got := replayAll(t, l2, 0); len(got) != 2 {
		t.Fatalf("replay returned %d batches, want 2", len(got))
	}
	if err := l2.Append(walBatch("post", 1)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// crashBatch builds one uniquely-identified batch with varied regions
// and values, so the recovered store's aggregates actually depend on
// which batches survived.
func crashBatch(prefix string, n int, rng *rand.Rand) []dataset.Record {
	regions := []string{"XA-01", "XA-02", "XA-01-001"}
	rs := make([]dataset.Record, n)
	for i := range rs {
		r := dataset.NewRecord(fmt.Sprintf("%s-%d", prefix, i), "ndt",
			regions[rng.Intn(len(regions))],
			time.Date(2025, 6, 2, rng.Intn(24), 0, 0, 0, time.UTC))
		r.DownloadMbps = 1 + 100*rng.Float64()
		rs[i] = r
	}
	return rs
}

// crashFingerprint captures the store as a multiset: records in
// ID-sorted wire form plus a spread of aggregates. Insertion order is
// deliberately erased — recovery replays in WAL order, the reference
// store is fed in submission order, and the store's contract says the
// answers are functions of the multiset alone.
func crashFingerprint(t *testing.T, s *dataset.Store) map[string]any {
	t.Helper()
	rs := s.Select(dataset.Filter{})
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	var wire bytes.Buffer
	if err := dataset.WriteNDJSON(&wire, rs); err != nil {
		t.Fatalf("encoding records: %v", err)
	}
	fp := map[string]any{
		"records":  wire.String(),
		"datasets": s.DatasetCounts(),
		"regions":  s.Regions(),
	}
	if len(rs) == 0 {
		// Every batch was lost to the crash, which is legal when none
		// was acked; an empty store has no aggregates to compare.
		return fp
	}
	for _, q := range []float64{5, 50, 95} {
		v, n, err := s.Aggregate(dataset.Filter{}, dataset.Download, q)
		if err != nil {
			t.Fatalf("aggregate p%v: %v", q, err)
		}
		fp[fmt.Sprintf("p%v", q)] = v
		fp["n"] = n
	}
	for _, code := range s.Regions() {
		v, n, err := s.Aggregate(dataset.Filter{RegionPrefix: code}, dataset.Download, 50)
		if err != nil {
			t.Fatalf("aggregate %s: %v", code, err)
		}
		fp["p50 "+code] = math.Float64bits(v)
		fp["n "+code] = n
	}
	return fp
}

// TestCrashRecoveryRandomized is the property test pinning the
// durability contract under chaos: randomized interleavings of
// concurrent appends, snapshots, and compactions, with
// transient sync/truncate faults and (usually) a kill-point somewhere
// in the WAL byte stream. After the crash, recovery must yield a store
// that (a) contains every durably-acknowledged batch, (b) contains only
// whole batches from the submitted workload — an unacked batch may be
// dropped or may survive, both are legal crash outcomes — (c) is
// bit-identical to a reference store fed the same surviving batches, and
// (d) selects the acknowledged records in the order the store that
// wrote them did.
func TestCrashRecoveryRandomized(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			t.Parallel()
			crashIteration(t, seed)
		})
	}
}

func crashIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	dir := t.TempDir()
	fs := newFaultFS()
	opts := Options{
		SegmentBytes: int64(256 + rng.Intn(2048)),
		FS:           fs,
	}
	// A slow disk lets concurrent appends pile up on the log's mutex.
	fs.setSyncLatency(time.Duration(rng.Intn(3)) * time.Millisecond)
	m, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Fault plan: usually a kill-point somewhere in the byte stream
	// (sometimes never reached — the clean-interleaving control), plus
	// a chaos goroutine sprinkling transient sync failures and
	// rollback-breaking truncate failures.
	if rng.Intn(4) > 0 {
		fs.killAfterBytes(int64(200 + rng.Intn(12000)))
	}

	const (
		writers          = 3
		batchesPerWriter = 12
	)
	submitted := make([]map[string][]dataset.Record, writers)
	acked := make([]map[string]bool, writers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // chaos
		defer wg.Done()
		crng := rand.New(rand.NewSource(seed*31 + 7))
		for i := 0; i < 4; i++ {
			time.Sleep(time.Duration(crng.Intn(4)) * time.Millisecond)
			switch crng.Intn(3) {
			case 0:
				fs.failNextSyncs(1 + crng.Intn(2))
			case 1:
				fs.setFailTruncate(true)
				time.Sleep(time.Millisecond)
				fs.setFailTruncate(false)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		w := w
		submitted[w] = map[string][]dataset.Record{}
		acked[w] = map[string]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed*131 + int64(w)))
			for b := 0; b < batchesPerWriter; b++ {
				prefix := fmt.Sprintf("s%d-w%d-b%d", seed, w, b)
				rs := crashBatch(prefix, 1+wrng.Intn(4), wrng)
				submitted[w][prefix] = rs
				err := m.Store().AddBatch(rs)
				if err == nil {
					acked[w][prefix] = true
					continue
				}
				if errors.Is(err, errKilled) || errors.Is(err, errWedged) {
					return // the process is dead
				}
				// Transient failure: sometimes retry once. The WAL may
				// already hold the errored frame (failed rollback), so
				// this is also what exercises recovery's duplicate
				// tolerance.
				if wrng.Intn(2) == 0 {
					switch err2 := m.Store().AddBatch(rs); {
					case err2 == nil:
						acked[w][prefix] = true
					case errors.Is(err2, errKilled) || errors.Is(err2, errWedged):
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // snapshots + compaction racing the writers
		defer wg.Done()
		srng := rand.New(rand.NewSource(seed*947 + 3))
		for i := 0; i < 3; i++ {
			time.Sleep(time.Duration(srng.Intn(5)) * time.Millisecond)
			m.Snapshot() // failures (killed compaction, ...) are part of the chaos
		}
	}()
	wg.Wait()
	// The writing store holds exactly the acked batches, in the order
	// recovery must reproduce.
	written := m.Store().Select(dataset.Filter{})
	m.Close() // dead or alive, recovery below starts from the files

	m2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer m2.Close()

	got := map[string]int{}
	for _, r := range m2.Store().Select(dataset.Filter{}) {
		got[r.ID]++
	}
	var present [][]dataset.Record
	total := 0
	for w := range submitted {
		for prefix, rs := range submitted[w] {
			have := 0
			for _, r := range rs {
				if got[r.ID] > 0 {
					have++
				}
			}
			if have != 0 && have != len(rs) {
				t.Fatalf("batch %s recovered partially: %d of %d records", prefix, have, len(rs))
			}
			if acked[w][prefix] && have == 0 {
				t.Fatalf("durably-acked batch %s lost by recovery", prefix)
			}
			if have == len(rs) {
				present = append(present, rs)
				total += len(rs)
			}
		}
	}
	if m2.Store().Len() != total {
		t.Fatalf("recovered store holds %d records but only %d belong to submitted batches",
			m2.Store().Len(), total)
	}

	// (d): unacked survivors dropped, the recovered store selects the
	// acked records in the writing store's order.
	ackedIDs := map[string]bool{}
	for w := range acked {
		for prefix := range acked[w] {
			for _, r := range submitted[w][prefix] {
				ackedIDs[r.ID] = true
			}
		}
	}
	var recovered []string
	for _, r := range m2.Store().Select(dataset.Filter{}) {
		if ackedIDs[r.ID] {
			recovered = append(recovered, r.ID)
		}
	}
	if len(recovered) != len(written) {
		t.Fatalf("recovered %d acked records, the writing store held %d", len(recovered), len(written))
	}
	for i, r := range written {
		if recovered[i] != r.ID {
			t.Fatalf("recovered store selects %s at %d of %d acked records, the writing store %s",
				recovered[i], i, len(written), r.ID)
		}
	}

	ref := dataset.NewStore()
	for _, rs := range present {
		if err := ref.AddBatch(rs); err != nil {
			t.Fatalf("feeding reference store: %v", err)
		}
	}
	want := crashFingerprint(t, ref)
	if first := crashFingerprint(t, m2.Store()); !reflect.DeepEqual(first, want) {
		t.Fatalf("recovered store differs from reference fed the same surviving batches:\n got %v\nwant %v", first, want)
	}

	// Recovery is idempotent: reopening the recovered dir yields the
	// same store again.
	m2.Close()
	m3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer m3.Close()
	if again := crashFingerprint(t, m3.Store()); !reflect.DeepEqual(again, want) {
		t.Fatal("second recovery differs from the first")
	}
}
