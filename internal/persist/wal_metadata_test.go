package persist

import (
	"testing"
	"time"

	"iqb/internal/dataset"
)

// TestMetadataReadersNeverTakeCommitterMutex pins the lock-free
// metadata contract directly on the Log: with an append parked inside
// its fsync — the committer holding l.mu — Offset, Stats, SizeBytes,
// SizePast, and Segments must all return immediately.
func TestMetadataReadersNeverTakeCommitterMutex(t *testing.T) {
	fs := newFaultFS()
	l, err := OpenLog(t.TempDir(), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]dataset.Record{walRecord("meta-probe", 50)}); err != nil {
		t.Fatal(err)
	}

	gate := fs.parkNextSync()
	appendDone := make(chan error, 1)
	go func() {
		appendDone <- l.Append([]dataset.Record{walRecord("meta-probe-2", 50)})
	}()
	select {
	case <-gate.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("append never reached the gated fsync")
	}

	readersDone := make(chan struct{})
	go func() {
		defer close(readersDone)
		if got := l.Offset(); got != 1 {
			t.Errorf("Offset during fsync = %d, want 1 (second append unacked)", got)
		}
		st := l.Stats()
		if st.AppendedFrames != 1 || st.Fsyncs != 1 {
			t.Errorf("Stats during fsync = %+v, want 1 appended frame / 1 fsync", st)
		}
		if l.SizeBytes() <= int64(len(segMagic)) {
			t.Error("SizeBytes during fsync reported an empty log")
		}
		if got := l.Segments(); got != 1 {
			t.Errorf("Segments during fsync = %d, want 1", got)
		}
		if l.SizePast(0) <= 0 {
			t.Error("SizePast during fsync reported nothing to replay")
		}
	}()
	select {
	case <-readersDone:
	case <-time.After(2 * time.Second):
		t.Fatal("metadata readers blocked behind the committer's fsync")
	}

	close(gate.release)
	if err := <-appendDone; err != nil {
		t.Fatalf("gated append failed: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
