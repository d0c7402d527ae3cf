package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/telemetry"
)

// snapRecords builds n distinct records with every metric present, so
// reflect.DeepEqual can compare them (a missing metric is NaN).
func snapRecords(n int) []dataset.Record {
	regions := []string{"XA-01", "XA-02", "XA-01-001"}
	rs := make([]dataset.Record, n)
	for i := range rs {
		r := dataset.NewRecord(fmt.Sprintf("snap-%d", i), "ndt", regions[i%len(regions)],
			time.Date(2025, 6, 2, i%24, i%60, 0, 0, time.UTC))
		r.DownloadMbps = float64(1 + i%500)
		r.UploadMbps = float64(1 + i%50)
		r.LatencyMS = float64(5 + i%90)
		r.LossFrac = float64(i%100) / 1000
		rs[i] = r
	}
	return rs
}

// cutSnapshot ingests n records into a fresh data dir, snapshots it and
// closes the manager, returning the dir, the snapshot and the records
// in Select order.
func cutSnapshot(t *testing.T, n int) (string, SnapshotInfo, []dataset.Record) {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := snapRecords(n)
	for len(rs) > 0 {
		k := min(len(rs), 500)
		if err := m.Store().AddBatch(rs[:k]); err != nil {
			t.Fatal(err)
		}
		rs = rs[k:]
	}
	want := m.Store().Select(dataset.Filter{})
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, info, want
}

// TestSnapshotFramesRoundTrip: a snapshot larger than one frame reloads
// to the same records in the same order.
func TestSnapshotFramesRoundTrip(t *testing.T) {
	const n = 10000
	dir, info, want := cutSnapshot(t, n)
	f, err := os.Open(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	_, err = readFrames(f, func(uint32, []byte) error { frames++; return nil })
	f.Close()
	if err != nil {
		t.Fatalf("reading snapshot frames: %v", err)
	}
	if frames <= 2 {
		t.Fatalf("%d-record snapshot has %d frames, want more than 2", n, frames)
	}

	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rec := m.Recovery(); !rec.FromSnapshot || rec.SnapshotRecords != n {
		t.Fatalf("recovery = %+v, want %d snapshot records", rec, n)
	}
	if got := m.Store().Select(dataset.Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatal("records recovered from the snapshot differ from the ones snapshotted, or their order does")
	}
}

// TestSnapshotDamageRefusesOpen: the body was fsynced before the
// manifest named it, so any damage to it — or a manifest that disagrees
// with it — is corruption: Open fails and hands back no store at all.
func TestSnapshotDamageRefusesOpen(t *testing.T) {
	editManifest := func(t *testing.T, dir string, edit func(*manifest)) {
		path := filepath.Join(dir, manifestName)
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		edit(&m)
		if body, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, info SnapshotInfo)
	}{
		{"flipped payload byte", func(t *testing.T, _ string, info SnapshotInfo) {
			body, err := os.ReadFile(info.Path)
			if err != nil {
				t.Fatal(err)
			}
			body[len(segMagic)+frameHdrSize+10] ^= 0xff
			if err := os.WriteFile(info.Path, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated mid-frame", func(t *testing.T, _ string, info SnapshotInfo) {
			if err := os.Truncate(info.Path, info.Bytes-100); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest records off by one", func(t *testing.T, dir string, _ SnapshotInfo) {
			editManifest(t, dir, func(m *manifest) { m.Records++ })
		}},
		{"version 1 manifest", func(t *testing.T, dir string, _ SnapshotInfo) {
			editManifest(t, dir, func(m *manifest) { m.Version = 1 })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, info, _ := cutSnapshot(t, 5000)
			tc.damage(t, dir, info)
			m, err := Open(dir, Options{NoSync: true})
			if err == nil {
				m.Close()
				t.Fatal("Open accepted a damaged snapshot")
			}
			if m != nil {
				t.Fatal("Open returned a manager alongside its error")
			}
		})
	}
}

// TestSnapshotCutWhileWriting: a writer keeps appending while a
// snapshot streams, so shard slices grow past the cut. The snapshot
// holds exactly the records the WAL held at the cut, and a reopened
// store selects the same records in the same order as the store that
// wrote them.
func TestSnapshotCutWhileWriting(t *testing.T) { snapshotCutWhileWriting(t, 1) }

// TestSnapshotCutWhileThreeWritersWrite is the same check with three
// concurrent AddBatch callers: a batch's WAL position and its Select
// position come from one ordered step, so the store that recovery
// rebuilds from snapshot and WAL selects in the order the writers'
// store did.
func TestSnapshotCutWhileThreeWritersWrite(t *testing.T) { snapshotCutWhileWriting(t, 3) }

func snapshotCutWhileWriting(t *testing.T, writers int) {
	dir := t.TempDir()
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// The writers log 60 batches between them before the snapshot
	// starts, keep writing while it runs, and each stops 20 batches
	// after it returns.
	const perBatch = 50
	var (
		wg       sync.WaitGroup
		logged   atomic.Int64
		snapDone atomic.Bool
		started  = make(chan struct{})
		start    = sync.OnceFunc(func() { close(started) })
	)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer start() // a failed writer must not leave the snapshot waiting
			after := 0
			for b := 0; after < 20; b++ {
				if snapDone.Load() {
					after++
				}
				rs := snapRecords(perBatch)
				for i := range rs {
					rs[i].ID = fmt.Sprintf("w%d-b%d-%d", w, b, i)
				}
				if err := m.Store().AddBatch(rs); err != nil {
					t.Error(err)
					return
				}
				if logged.Add(1) == 60 {
					start()
				}
			}
		}()
	}
	<-started
	info, err := m.Snapshot()
	snapDone.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(info.Records) != info.WALOffset {
		t.Fatalf("snapshot holds %d records, the WAL held %d at the cut", info.Records, info.WALOffset)
	}
	want := m.Store().Select(dataset.Filter{})
	if info.Records < 60*perBatch || len(want) < info.Records+20*writers*perBatch {
		t.Fatalf("snapshot of %d records amid %d writes: the writes did not straddle the cut", info.Records, len(want))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if rec := m.Recovery(); rec.SnapshotRecords != info.Records || rec.WALRecords != len(want)-info.Records {
		t.Fatalf("recovery = %+v, want %d snapshot and %d WAL records", rec, info.Records, len(want)-info.Records)
	}
	got := m.Store().Select(dataset.Filter{})
	if len(got) != len(want) {
		t.Fatalf("reopened store selects %d records, the one that wrote them %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("reopened store's record %d of %d is %s, the writing store's is %s", i, len(want), got[i].ID, want[i].ID)
		}
	}
}

// TestSnapshotFenceHistogram: /metrics carries the time each snapshot
// held writers out, one observation per snapshot.
func TestSnapshotFenceHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := Open(t.TempDir(), Options{NoSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	count := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "iqb_persist_snapshot_fence_seconds_count "); ok {
				return v
			}
		}
		t.Fatalf("no iqb_persist_snapshot_fence_seconds family in\n%s", b.String())
		return ""
	}
	if got := count(); got != "0" {
		t.Fatalf("fence observations before any snapshot = %s", got)
	}
	for want := 1; want <= 2; want++ {
		if err := m.Store().AddBatch(snapRecords(10)[(want-1)*5 : want*5]); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := count(); got != fmt.Sprint(want) {
			t.Fatalf("fence observations after %d snapshots = %s", want, got)
		}
	}
}
