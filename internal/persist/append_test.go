package persist

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"iqb/internal/dataset"
)

// TestParallelAppendsExactlyOnce drives N parallel writers through the
// WAL and checks that every acked batch is present exactly once after a
// reopen, each as its own frame with its own fsync.
func TestParallelAppendsExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	// A disk whose flushes take a millisecond: writers pile up on l.mu
	// behind each sync even on one CPU.
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
	if st := l.Stats(); st.AppendedFrames != batches || st.Fsyncs != batches {
		t.Fatalf("stats = %+v, want %d frames and %d fsyncs", st, batches, batches)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
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

// parkedAppend starts an Append of batch and returns once it is parked
// inside its fsync, holding l.mu. The append's result arrives on the
// returned channel after the test closes gate.release.
func parkedAppend(t *testing.T, l *Log, fs *faultFS, batch []dataset.Record) (*syncGate, <-chan error) {
	t.Helper()
	gate := fs.parkNextSync()
	done := make(chan error, 1)
	go func() { done <- l.Append(batch) }()
	select {
	case <-gate.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("append never reached the gated fsync")
	}
	return gate, done
}

// stillBlocked fails the test if done delivers within a short window:
// the operation behind it must wait for the append parked in its fsync.
// The window also lets that operation reach l.mu, so the release that
// follows finds it waiting there.
func stillBlocked(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s finished (%v) while an append held the log in its fsync", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestCloseDuringFsyncAcksInFlightAppend: an append already inside its
// fsync when Close lands is acknowledged durably — Close waits for it
// rather than closing the file under it — and an append after Close
// fails with errLogClosed.
func TestCloseDuringFsyncAcksInFlightAppend(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := OpenLog(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	gate, appended := parkedAppend(t, l, fs, walBatch("inflight", 2))
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	stillBlocked(t, "Close", closed)
	close(gate.release)
	if err := <-appended; err != nil {
		t.Fatalf("append in its fsync when Close landed: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("late", 1)); !errors.Is(err, errLogClosed) {
		t.Fatalf("append after Close = %v, want errLogClosed", err)
	}

	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2, 0); len(got) != 1 || got[0][0].ID != "inflight-0" {
		t.Fatalf("replay after Close returned %d batches, want the in-flight one", len(got))
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
