package persist

import (
	"os"
	"path/filepath"
	"testing"

	"iqb/internal/dataset"
)

// These tests pin scavenge-on-open: a rotation that fails after its new
// segment file is created abandons the file, and when the abandoning
// unlink ALSO fails, an empty offset-named segment is left on disk. The
// neighbor segment keeps growing past the leftover's start, so before
// scavenging, reopening the directory refused the whole WAL as corrupt
// — acknowledged durable data bricked by an empty file.

// failRotation arms the fault pair that produces a leftover: the
// rotation's directory sync fails (abandoning the new segment) and the
// abandon's Remove fails too (stranding the file).
func failRotation(fs *faultFS, rotations int) {
	fs.failNextDirSyncs(rotations)
	fs.setFailRemove(true)
}

// TestScavengeLeftoverSegmentOnReopen: leftover in the middle of the
// chain. Without scavenging this reopen failed the contiguity check.
func TestScavengeLeftoverSegmentOnReopen(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	// SegmentBytes 1: every append crosses the threshold and attempts a
	// rotation, so the test controls exactly which rotation fails.
	l, err := OpenLog(dir, Options{SegmentBytes: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// Append a: durable, then a successful rotation seals segment 0.
	if err := l.Append(walBatch("a", 3)); err != nil {
		t.Fatal(err)
	}
	// Append b: durable in the new active segment; the rotation at
	// offset 5 fails after the segment file exists, and the unlink
	// fails too — the acked append must still succeed.
	failRotation(fs, 1)
	if err := l.Append(walBatch("b", 2)); err != nil {
		t.Fatalf("acked append failed because its rotation failed: %v", err)
	}
	fs.clearFaults()
	leftover := segName(5)
	if _, err := os.Stat(filepath.Join(dir, leftover)); err != nil {
		t.Fatalf("fault plan did not strand leftover %s: %v", leftover, err)
	}
	// Append c: the active segment grows past the leftover's start, and
	// the retried rotation succeeds at offset 9.
	if err := l.Append(walBatch("c", 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen with a leftover segment: %v", err)
	}
	defer l2.Close()
	if got := l2.Scavenged(); len(got) != 1 || got[0] != leftover {
		t.Fatalf("scavenged = %v, want [%s]", got, leftover)
	}
	if _, err := os.Stat(filepath.Join(dir, leftover)); !os.IsNotExist(err) {
		t.Fatalf("leftover %s still on disk after scavenge (stat err %v)", leftover, err)
	}
	if got := l2.Offset(); got != 9 {
		t.Fatalf("recovered offset = %d, want 9", got)
	}
	batches := replayAll(t, l2, 0)
	if len(batches) != 3 {
		t.Fatalf("replay returned %d batches, want the 3 acked ones", len(batches))
	}
	for i, wantFirst := range []string{"a-0", "b-0", "c-0"} {
		if batches[i][0].ID != wantFirst {
			t.Fatalf("batch %d starts with %s, want %s", i, batches[i][0].ID, wantFirst)
		}
	}
}

// TestScavengeKeepsLegitimateFreshActive: a frameless LAST segment
// whose start equals the previous segment's end is exactly what a
// successful rotation produces — it must be kept, not scavenged, even
// when an earlier leftover in the same directory is removed.
func TestScavengeKeepsLegitimateFreshActive(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	l, err := OpenLog(dir, Options{SegmentBytes: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("a", 3)); err != nil {
		t.Fatal(err)
	}
	// Two consecutive failed rotations: leftovers at offsets 5 and 6.
	failRotation(fs, 2)
	if err := l.Append(walBatch("b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("c", 1)); err != nil {
		t.Fatal(err)
	}
	fs.clearFaults()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// On disk: seg 0 (3 records), seg 3 (b+c, covers [3,6)), leftover 5
	// (inside seg 3's range), leftover 6. Segment 6 is indistinguishable
	// from a fresh active a successful rotation would have created, and
	// keeping it is harmless — only segment 5 may go.
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.Scavenged(); len(got) != 1 || got[0] != segName(5) {
		t.Fatalf("scavenged = %v, want exactly [%s]", got, segName(5))
	}
	if _, err := os.Stat(filepath.Join(dir, segName(6))); err != nil {
		t.Fatalf("legitimate fresh active %s was removed: %v", segName(6), err)
	}
	if got := l2.Offset(); got != 6 {
		t.Fatalf("recovered offset = %d, want 6", got)
	}
	if got := replayAll(t, l2, 0); len(got) != 3 {
		t.Fatalf("replay returned %d batches, want 3", len(got))
	}
	// The recovered log must keep working: appends land in the kept
	// fresh active segment.
	if err := l2.Append(walBatch("d", 2)); err != nil {
		t.Fatalf("append after scavenge: %v", err)
	}
	if got := l2.Offset(); got != 8 {
		t.Fatalf("offset after post-scavenge append = %d, want 8", got)
	}
}

// TestManagerReportsScavengedSegments: the manager surfaces scavenging
// in Recovery, and the recovered store holds every acknowledged record.
func TestManagerReportsScavengedSegments(t *testing.T) {
	dir := t.TempDir()
	fs := newFaultFS()
	m, err := Open(dir, Options{SegmentBytes: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store().AddBatch(walBatch("seed", 3)); err != nil {
		t.Fatal(err)
	}
	failRotation(fs, 1)
	if err := m.Store().AddBatch(walBatch("during", 2)); err != nil {
		t.Fatalf("acked batch failed because its rotation failed: %v", err)
	}
	fs.clearFaults()
	if err := m.Store().AddBatch(walBatch("after", 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen with leftover: %v", err)
	}
	defer re.Close()
	rec := re.Recovery()
	if len(rec.ScavengedSegments) != 1 {
		t.Fatalf("Recovery.ScavengedSegments = %v, want one entry", rec.ScavengedSegments)
	}
	if got, want := re.Store().Len(), 7; got != want {
		t.Fatalf("recovered store holds %d records, want %d", got, want)
	}
	for _, r := range re.Store().Select(dataset.Filter{}) {
		if r.ID == "" {
			t.Fatal("recovered a record without an ID")
		}
	}
}
