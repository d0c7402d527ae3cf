package persist

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iqb/internal/dataset"
)

// storeFingerprint captures everything recovery promises to preserve:
// the full record set in acknowledgment order plus a spread of
// aggregate answers.
func storeFingerprint(t *testing.T, s *dataset.Store) map[string]any {
	t.Helper()
	// Records are fingerprinted through their wire encoding: NaN (the
	// "missing metric" sentinel) is omitted there, whereas
	// reflect.DeepEqual would report NaN != NaN on the structs.
	var wire bytes.Buffer
	if err := dataset.WriteNDJSON(&wire, s.Select(dataset.Filter{})); err != nil {
		t.Fatalf("encoding records: %v", err)
	}
	fp := map[string]any{
		"records":  wire.String(),
		"datasets": s.DatasetCounts(),
		"regions":  s.Regions(),
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

func TestManagerRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Recovery().HasData() {
		t.Fatal("fresh dir reported recovered data")
	}
	for i := 0; i < 4; i++ {
		if err := m.Store().AddBatch(walBatch(fmt.Sprintf("b%d", i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	want := storeFingerprint(t, m.Store())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if rec.FromSnapshot || rec.WALRecords != 12 || rec.WALBatches != 4 {
		t.Fatalf("recovery = %+v, want 4 WAL batches / 12 records, no snapshot", rec)
	}
	if got := storeFingerprint(t, m2.Store()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered store differs:\n got %v\nwant %v", got, want)
	}
	// The recovered log continues from the durable offset.
	if err := m2.Store().Add(walRecord("post-recovery", 1)); err != nil {
		t.Fatal(err)
	}
	if got := m2.Status().WALRecords; got != 13 {
		t.Fatalf("WAL offset after recovery+add = %d, want 13", got)
	}
}

func TestManagerSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.Store().AddBatch(walBatch(fmt.Sprintf("pre%d", i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 20 || info.WALOffset != 20 {
		t.Fatalf("snapshot info = %+v, want 20 records at offset 20", info)
	}
	if _, err := os.Stat(info.Path); err != nil {
		t.Fatalf("snapshot body missing: %v", err)
	}
	// No temp droppings survive a successful snapshot.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
	// Post-snapshot writes go to the WAL only.
	for i := 0; i < 3; i++ {
		if err := m.Store().AddBatch(walBatch(fmt.Sprintf("post%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	want := storeFingerprint(t, m.Store())
	st := m.Status()
	if st.SnapshotOffset != 20 || st.WALRecords != 26 {
		t.Fatalf("status = %+v, want snapshot at 20, WAL at 26", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if !rec.FromSnapshot || rec.SnapshotRecords != 20 || rec.WALRecords != 6 || rec.WALBatches != 3 {
		t.Fatalf("recovery = %+v, want snapshot of 20 + 3 WAL batches of 6", rec)
	}
	if got := storeFingerprint(t, m2.Store()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered store differs from pre-restart store")
	}

	// A second snapshot supersedes the first and compacts its segments.
	info2, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info2.WALOffset != 26 || info2.Records != 26 {
		t.Fatalf("second snapshot info = %+v", info2)
	}
	if _, err := os.Stat(info.Path); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot body not removed (err=%v)", err)
	}
	m3state := m2.Status()
	if m3state.SnapshotOffset != 26 {
		t.Fatalf("status after second snapshot = %+v", m3state)
	}
}

// TestManagerCrashTornTail simulates the acceptance scenario: a crash
// mid-append leaves a truncated final frame; recovery must restore
// exactly the acknowledged writes and report the tear.
func TestManagerCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store().AddBatch(walBatch("acked", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Store().AddBatch(walBatch("acked2", 3)); err != nil {
		t.Fatal(err)
	}
	want := storeFingerprint(t, m.Store())
	// Crash: no Close; a partial frame lands on the active segment.
	corruptTail(t, filepath.Join(dir, walSubdir), []byte{0x42, 0x42, 0x42})

	m2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if !rec.FromSnapshot || rec.WALRecords != 3 {
		t.Fatalf("recovery = %+v, want snapshot + 3 WAL records", rec)
	}
	if got := storeFingerprint(t, m2.Store()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered store differs from acknowledged state")
	}
}

// TestManagerReplayTolerantOfDuplicateBatches: Append acks durability
// the moment the frame lands, so an error reported after that point
// (failed rotation or fsync) makes the writer retry a batch the WAL
// already holds. Recovery must skip the duplicate instead of refusing
// to boot.
func TestManagerReplayTolerantOfDuplicateBatches(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := walBatch("retried", 3)
	if err := m.Store().AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	want := storeFingerprint(t, m.Store())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the retry: the identical batch appended to the WAL a
	// second time, behind the manager's back.
	l, err := OpenLog(filepath.Join(dir, walSubdir), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery over a duplicated batch: %v", err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if rec.WALDuplicateBatches != 1 || rec.WALBatches != 1 || rec.WALRecords != 3 {
		t.Fatalf("recovery = %+v, want 1 applied batch + 1 duplicate skipped", rec)
	}
	if got := storeFingerprint(t, m2.Store()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered store differs after duplicate skip")
	}
}

// TestManagerWALGrowthTrigger: with SnapshotWALBytes armed, WAL growth
// past the threshold signals GrowthC, SnapshotIfGrown cuts a snapshot
// (and only then), and the since-snapshot counters reset.
func TestManagerWALGrowthTrigger(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true, SnapshotWALBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Below the threshold: no signal, and SnapshotIfGrown declines.
	if err := m.Store().AddBatch(walBatch("small", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.GrowthC():
		t.Fatal("growth signaled below the threshold")
	default:
	}
	if _, cut, err := m.SnapshotIfGrown(); err != nil || cut {
		t.Fatalf("SnapshotIfGrown below threshold: cut=%v err=%v", cut, err)
	}
	st := m.Status()
	if st.WALSinceSnapshotRecords != 1 || st.WALSinceSnapshotBytes <= 0 {
		t.Fatalf("since-snapshot counters = %d records / %d bytes, want 1 record and > 0 bytes",
			st.WALSinceSnapshotRecords, st.WALSinceSnapshotBytes)
	}

	// Cross the threshold: the commit hook must signal.
	for i := 0; m.Status().WALSinceSnapshotBytes < 512; i++ {
		if err := m.Store().AddBatch(walBatch(fmt.Sprintf("grow%d", i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-m.GrowthC():
	default:
		t.Fatal("no growth signal although the WAL crossed the threshold")
	}
	info, cut, err := m.SnapshotIfGrown()
	if err != nil || !cut {
		t.Fatalf("SnapshotIfGrown past threshold: cut=%v err=%v", cut, err)
	}
	if info.Records != m.Store().Len() {
		t.Fatalf("growth snapshot covered %d records, store holds %d", info.Records, m.Store().Len())
	}
	st = m.Status()
	if st.WALSinceSnapshotRecords != 0 || st.WALSinceSnapshotBytes >= 512 {
		t.Fatalf("since-snapshot counters after snapshot = %d records / %d bytes, want reset",
			st.WALSinceSnapshotRecords, st.WALSinceSnapshotBytes)
	}
	// The signal space is drained and stays quiet until new growth.
	if _, cut, _ := m.SnapshotIfGrown(); cut {
		t.Fatal("SnapshotIfGrown re-cut with no new growth")
	}
}

// TestManagerGrowthSignaledAtOpen: a recovered dir that already owes
// more replay than the threshold allows signals immediately, so the
// snapshot loop catches up right after boot instead of waiting for
// fresh ingest.
func TestManagerGrowthSignaledAtOpen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := m.Store().AddBatch(walBatch(fmt.Sprintf("b%d", i), 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{NoSync: true, SnapshotWALBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	select {
	case <-m2.GrowthC():
	default:
		t.Fatal("no growth signal at open despite an over-threshold WAL")
	}
}

func TestManagerMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := m.Meta()
	if err != nil || len(empty) != 0 {
		t.Fatalf("fresh meta = %v, %v", empty, err)
	}
	want := map[string]string{"seed": "42", "tests_per_county": "120"}
	if err := m.SetMeta(want); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("meta = %v, want %v", got, want)
	}
}
