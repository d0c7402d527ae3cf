package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"iqb/internal/dataset"
)

func walRecord(id string, v float64) dataset.Record {
	r := dataset.NewRecord(id, "ndt", "XA-01", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC))
	r.DownloadMbps = v
	return r
}

func walBatch(prefix string, n int) []dataset.Record {
	rs := make([]dataset.Record, n)
	for i := range rs {
		rs[i] = walRecord(fmt.Sprintf("%s-%d", prefix, i), float64(10+i))
	}
	return rs
}

func replayAll(t *testing.T, l *Log, from uint64) [][]dataset.Record {
	t.Helper()
	var out [][]dataset.Record
	if err := l.Replay(from, func(rs []dataset.Record) error {
		out = append(out, rs)
		return nil
	}); err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return out
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]dataset.Record{walBatch("a", 3), walBatch("b", 1), walBatch("c", 5)}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Offset(); got != 9 {
		t.Fatalf("offset = %d, want 9", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: offsets and contents must survive.
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Offset(); got != 9 {
		t.Fatalf("reopened offset = %d, want 9", got)
	}
	if l2.TornTail() {
		t.Fatal("clean log reported a torn tail")
	}
	got := replayAll(t, l2, 0)
	if len(got) != len(batches) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(batches))
	}
	for i := range batches {
		if len(got[i]) != len(batches[i]) {
			t.Fatalf("batch %d: %d records, want %d", i, len(got[i]), len(batches[i]))
		}
		for j := range batches[i] {
			if got[i][j].ID != batches[i][j].ID || got[i][j].DownloadMbps != batches[i][j].DownloadMbps {
				t.Fatalf("batch %d record %d mismatch: %+v vs %+v", i, j, got[i][j], batches[i][j])
			}
		}
	}

	// Replay from a batch boundary skips covered frames.
	tail := replayAll(t, l2, 4)
	if len(tail) != 1 || len(tail[0]) != 5 {
		t.Fatalf("Replay(4) returned %d batches, want 1 of 5 records", len(tail))
	}
	// An offset splitting a batch is a manifest/log mismatch.
	if err := l2.Replay(2, func([]dataset.Record) error { return nil }); err == nil {
		t.Fatal("Replay accepted an offset inside a batch")
	}
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every batch rotates.
	l, err := OpenLog(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(walBatch(fmt.Sprintf("b%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Segments(); got < 5 {
		t.Fatalf("expected >= 5 segments after rotation, got %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Offset(); got != 10 {
		t.Fatalf("offset across segments = %d, want 10", got)
	}
	if got := replayAll(t, l2, 0); len(got) != 5 {
		t.Fatalf("replayed %d batches across segments, want 5", len(got))
	}
}

// corruptTail appends garbage to the newest WAL segment, simulating a
// crash mid-append.
func corruptTail(t *testing.T, dir string, garbage []byte) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return last
}

func TestLogTornTailVariants(t *testing.T) {
	// A frame header claiming more payload than exists.
	tornFrame := func() []byte {
		var hdr [frameHdrSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 4096)
		binary.LittleEndian.PutUint32(hdr[4:8], 7)
		binary.LittleEndian.PutUint32(hdr[8:12], 0xdeadbeef)
		return append(hdr[:], []byte("only a little payload")...)
	}
	cases := []struct {
		name    string
		garbage []byte
	}{
		{"partial header", []byte{0x10, 0x00}},
		{"truncated payload", tornFrame()},
		{"zero fill", make([]byte, 64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenLog(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(walBatch("good", 3)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			corruptTail(t, dir, tc.garbage)

			l2, err := OpenLog(dir, Options{NoSync: true})
			if err != nil {
				t.Fatalf("open after torn tail: %v", err)
			}
			defer l2.Close()
			if !l2.TornTail() {
				t.Fatal("torn tail not reported")
			}
			if got := l2.Offset(); got != 3 {
				t.Fatalf("offset after truncation = %d, want 3", got)
			}
			if got := replayAll(t, l2, 0); len(got) != 1 || len(got[0]) != 3 {
				t.Fatalf("replay after truncation returned %d batches", len(got))
			}
			// The log must accept appends cleanly after truncation.
			if err := l2.Append(walBatch("after", 2)); err != nil {
				t.Fatal(err)
			}
			if got := replayAll(t, l2, 0); len(got) != 2 {
				t.Fatalf("replay after post-tear append returned %d batches, want 2", len(got))
			}
		})
	}
}

// TestHostileFrameLengthAllocatesOnlyWhatArrives: a torn header that
// claims a 200 MiB payload must read as a torn tail, and the frame
// reader must not allocate the claimed size before the bytes arrive.
func TestHostileFrameLengthAllocatesOnlyWhatArrives(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("good", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 200<<20)
	binary.LittleEndian.PutUint32(hdr[4:8], 1)
	corruptTail(t, dir, hdr[:])

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2, err := OpenLog(dir, Options{NoSync: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("open after hostile header: %v", err)
	}
	defer l2.Close()
	if !l2.TornTail() {
		t.Fatal("hostile header not reported as a torn tail")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("open allocated %d bytes for a 12-byte torn header, want < 4 MiB", grew)
	}
	if got := l2.Offset(); got != 3 {
		t.Fatalf("offset = %d, want 3", got)
	}
}

// TestLogCorruptCRCTail flips a payload byte of the final frame: the
// checksum catches it and the frame is discarded as a torn tail.
func TestLogCorruptCRCTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	body, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-2] ^= 0xff // inside the last frame's payload
	if err := os.WriteFile(seg, body, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("open after CRC damage: %v", err)
	}
	defer l2.Close()
	if !l2.TornTail() {
		t.Fatal("CRC-broken tail not reported as torn")
	}
	if got := l2.Offset(); got != 2 {
		t.Fatalf("offset = %d, want 2 (second batch discarded)", got)
	}
}

// TestLogCorruptionInSealedSegment: the same damage that is a
// recoverable torn tail in the last segment is hard corruption in a
// sealed one — refusing to open beats silently dropping interior data.
func TestLogCorruptionInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(walBatch(fmt.Sprintf("b%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, segName(0))
	body, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-2] ^= 0xff
	if err := os.WriteFile(first, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(dir, Options{NoSync: true}); err == nil ||
		!strings.Contains(err.Error(), "corruption") {
		t.Fatalf("open over sealed-segment damage: err = %v, want corruption error", err)
	}
}

func TestLogCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if err := l.Append(walBatch(fmt.Sprintf("b%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	// Snapshot covered the first three batches (6 records).
	if err := l.Compact(6); err != nil {
		t.Fatal(err)
	}
	if after := l.Segments(); after >= before {
		t.Fatalf("compaction did not drop segments: %d -> %d", before, after)
	}
	// Uncovered data must survive compaction.
	got := replayAll(t, l, 6)
	if len(got) != 1 || got[0][0].ID != "b3-0" {
		t.Fatalf("post-compaction replay lost data: %v batches", len(got))
	}
	// Compacting everything leaves an operable log.
	if err := l.Compact(8); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(walBatch("post", 1)); err != nil {
		t.Fatal(err)
	}
	if got := l.Offset(); got != 9 {
		t.Fatalf("offset after compaction+append = %d, want 9", got)
	}
}

// TestLogCompactToleratesMissingSegment: a segment file that is already
// gone (deleted out of band, or unlinked in a Compact whose later step
// failed) must read as "removed", not poison every future compaction.
func TestLogCompactToleratesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := l.Append(walBatch(fmt.Sprintf("b%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, segName(0))); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(4); err != nil {
		t.Fatalf("Compact over a missing segment: %v", err)
	}
	got := replayAll(t, l, 4)
	if len(got) != 1 {
		t.Fatalf("replay after compaction returned %d batches, want 1", len(got))
	}
}
