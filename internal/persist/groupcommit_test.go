package persist

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"iqb/internal/dataset"
)

// TestGroupCommitExactlyOnceFewerFsyncs drives N parallel writers
// through the group-committed WAL and checks both sides of the
// bargain: every acked batch is present exactly once after a reopen,
// and the fsync count (observed by the injection layer) is strictly
// less than the batch count — the syncs were genuinely shared.
func TestGroupCommitExactlyOnceFewerFsyncs(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	// A disk whose flushes take a millisecond: writers pile up behind
	// each sync even on one CPU, where a fast fsync would let the
	// committer finish before any other writer runs.
	fs.setSyncLatency(time.Millisecond)
	l, err := OpenLog(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 8
		perWriter = 25
		perBatch  = 2
	)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < perWriter; b++ {
				if err := l.Append(walBatch(fmt.Sprintf("w%d-b%d", w, b), perBatch)); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	const batches = writers * perWriter
	stats := l.Stats()
	if stats.AppendedFrames != batches {
		t.Fatalf("appended frames = %d, want %d", stats.AppendedFrames, batches)
	}
	if stats.Fsyncs >= batches {
		t.Fatalf("log counted %d fsyncs for %d batches; group commit shared nothing", stats.Fsyncs, batches)
	}
	if stats.MaxGroupFrames < 2 {
		t.Fatalf("max group size = %d, want >= 2 under %d parallel writers", stats.MaxGroupFrames, writers)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The injection layer sees every file sync — append groups plus
	// segment bookkeeping — and even that total must be beaten by the
	// batch count, or the coalescing isn't real.
	if syncs := fs.fileSyncCount(); syncs >= batches {
		t.Fatalf("%d file syncs for %d batches; want strictly fewer", syncs, batches)
	}

	// Exactly once: reopen and replay everything.
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Offset(); got != batches*perBatch {
		t.Fatalf("reopened offset = %d, want %d", got, batches*perBatch)
	}
	seen := map[string]int{}
	if err := l2.Replay(0, func(rs []dataset.Record) error {
		for _, r := range rs {
			seen[r.ID]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != batches*perBatch {
		t.Fatalf("replay saw %d distinct records, want %d", len(seen), batches*perBatch)
	}
	for w := 0; w < writers; w++ {
		for b := 0; b < perWriter; b++ {
			for i := 0; i < perBatch; i++ {
				id := fmt.Sprintf("w%d-b%d-%d", w, b, i)
				if seen[id] != 1 {
					t.Fatalf("record %s replayed %d times, want exactly once", id, seen[id])
				}
			}
		}
	}
}

// waitQueued blocks until n appends wait in the log's group-commit
// queue.
func waitQueued(t *testing.T, l *Log, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d queued appends", n), func() bool {
		l.qmu.Lock()
		defer l.qmu.Unlock()
		return len(l.pending) >= n
	})
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitCloseFlushesQueuedAppends: writers already queued when
// Close lands must get durable acks, not errors — Close drains the
// committer, it does not strand it.
func TestGroupCommitCloseFlushesQueuedAppends(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := OpenLog(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	errs := make([]error, writers)
	var wg sync.WaitGroup
	appendAsync := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Append(walBatch(fmt.Sprintf("q%d", i), 1))
		}()
	}
	// Writer 0 parks in its sync; the other three queue behind it.
	gate := fs.parkNextSync()
	appendAsync(0)
	<-gate.parked
	for i := 1; i < writers; i++ {
		appendAsync(i)
	}
	waitQueued(t, l, writers-1)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	waitFor(t, "Close to shut the queue", func() bool {
		l.qmu.Lock()
		defer l.qmu.Unlock()
		return l.qclosed
	})
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d queued before Close failed: %v", i, err)
		}
	}
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Offset(); got != writers {
		t.Fatalf("reopened offset = %d, want %d (every queued append acked)", got, writers)
	}
}

// TestAppendAfterCloseFails covers the closed check with and without
// syncs.
func TestAppendAfterCloseFails(t *testing.T) {
	for _, mode := range []string{"group", "nosync"} {
		t.Run(mode, func(t *testing.T) {
			l, err := OpenLog(t.TempDir(), Options{NoSync: mode == "nosync"})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(walBatch("late", 1)); err == nil {
				t.Fatal("append after Close succeeded")
			}
			if err := l.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}
