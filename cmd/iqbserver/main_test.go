package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/httpapi"
	"iqb/internal/iqb"
	"iqb/internal/persist"
	"iqb/internal/pipeline"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testSpec() pipeline.Spec {
	spec := pipeline.DefaultSpec()
	spec.Geo.States = 2
	spec.Geo.CountiesPer = 2
	spec.TestsPerCounty = 10
	spec.Days = 2
	spec.OoklaMinGroup = 2
	return spec
}

// scoreFingerprint serializes every region's full score plus the county
// ranking, so two worlds compare bit-for-bit.
func scoreFingerprint(t *testing.T, w *world) string {
	t.Helper()
	cfg := iqb.DefaultConfig()
	scores := map[string]iqb.Score{}
	for _, code := range w.db.AllRegions() {
		s, err := cfg.ScoreRegion(w.store, code, time.Time{}, time.Time{})
		if err != nil {
			t.Fatalf("scoring %s: %v", code, err)
		}
		scores[code] = s
	}
	type ranked struct {
		Code string
		IQB  float64
	}
	var ranking []ranked
	for code, s := range scores {
		ranking = append(ranking, ranked{code, s.IQB})
	}
	sort.Slice(ranking, func(i, j int) bool {
		if ranking[i].IQB != ranking[j].IQB {
			return ranking[i].IQB > ranking[j].IQB
		}
		return ranking[i].Code < ranking[j].Code
	})
	blob, err := json.Marshal(struct {
		Scores  map[string]iqb.Score
		Ranking []ranked
	}{scores, ranking})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestKillAndRestartRecoversBitIdentical is the PR's acceptance test:
// a server started with -data-dir, killed (without clean shutdown, with
// a torn frame on the WAL tail), and restarted must serve bit-identical
// ScoreAll/ranking output — recovered from snapshot + WAL, not by
// re-running the pipeline.
func TestKillAndRestartRecoversBitIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := bootOptions{dataDir: dir}
	spec := testSpec()

	// First boot: simulates the world through the WAL and cuts the
	// initial snapshot.
	w1, err := openWorld(testLogger(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w1.recovered || w1.mgr == nil {
		t.Fatalf("first boot: recovered=%v mgr=%v, want fresh durable boot", w1.recovered, w1.mgr)
	}
	// Live ingestion after the snapshot: these records exist only in
	// the WAL, so recovery must stitch snapshot + WAL together.
	extra := make([]dataset.Record, 8)
	for i := range extra {
		r := dataset.NewRecord("live-"+string(rune('a'+i)), "ndt", "XA-01-001",
			time.Date(2025, 6, 3, 12, 0, 0, 0, time.UTC))
		r.DownloadMbps = float64(50 + i)
		r.UploadMbps = float64(10 + i)
		r.LatencyMS = 20
		r.LossFrac = 0.001
		extra[i] = r
	}
	if err := w1.store.AddBatch(extra); err != nil {
		t.Fatal(err)
	}
	want := scoreFingerprint(t, w1)
	wantLen := w1.store.Len()

	// Kill: no clean shutdown; a crash mid-append leaves a truncated
	// frame on the WAL tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments (err=%v)", err)
	}
	active, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := active.Write([]byte{0x13, 0x37, 0x00}); err != nil {
		t.Fatal(err)
	}
	active.Close()

	// Restart with a different -seed flag: the recorded seed must win,
	// or the rebuilt geography would not match the stored records.
	spec2 := testSpec()
	spec2.Seed = spec.Seed + 999
	w2, err := openWorld(testLogger(), spec2, opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer w2.mgr.Close()
	if !w2.recovered {
		t.Fatal("restart did not recover from disk")
	}
	rec := w2.mgr.Recovery()
	if !rec.FromSnapshot {
		t.Fatalf("recovery skipped the snapshot: %+v", rec)
	}
	if !rec.TornTail {
		t.Fatalf("torn WAL tail not detected: %+v", rec)
	}
	if rec.WALRecords != len(extra) {
		t.Fatalf("recovery replayed %d WAL records, want %d", rec.WALRecords, len(extra))
	}
	if got := w2.store.Len(); got != wantLen {
		t.Fatalf("recovered store holds %d records, want %d", got, wantLen)
	}
	if got := scoreFingerprint(t, w2); got != want {
		t.Fatal("recovered world scores differ from pre-kill world")
	}

	// The recovered server keeps ingesting durably: one more record,
	// one more restart, still bit-identical.
	again := dataset.NewRecord("live-final", "ndt", "XA-01-001",
		time.Date(2025, 6, 3, 13, 0, 0, 0, time.UTC))
	again.DownloadMbps = 77
	if err := w2.store.Add(again); err != nil {
		t.Fatal(err)
	}
	want2 := scoreFingerprint(t, w2)
	if err := w2.mgr.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := openWorld(testLogger(), testSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.mgr.Close()
	if !w3.recovered {
		t.Fatal("third boot did not recover from disk")
	}
	if got := scoreFingerprint(t, w3); got != want2 {
		t.Fatal("third boot scores differ")
	}
}

// TestSnapshotFiresOnWALGrowthAlone pins the -snapshot-wal-bytes
// trigger: with the wall-clock interval disabled entirely, ingesting
// past the growth threshold must make the server's background loop cut
// a snapshot — growth is a first-class trigger, not a refinement of the
// timer.
func TestSnapshotFiresOnWALGrowthAlone(t *testing.T) {
	dir := t.TempDir()
	const growBytes = 4096
	w, err := openWorld(testLogger(), testSpec(), bootOptions{
		dataDir:          dir,
		snapshotWALBytes: growBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No wall-clock ticker: SnapshotInterval stays 0.
	api, err := httpapi.Open(httpapi.Config{Scoring: iqb.DefaultConfig(), Store: w.store,
		Geo: w.db, Logger: testLogger(), Persist: w.mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	base := w.mgr.Status().SnapshotOffset
	if base == 0 {
		t.Fatal("first boot cut no initial snapshot")
	}

	// Ingest until the uncovered WAL crosses the threshold; the growth
	// stats must be visible on the way (they feed /v1/health).
	for i := 0; w.mgr.Status().WALSinceSnapshotBytes < growBytes; i++ {
		rs := make([]dataset.Record, 8)
		for j := range rs {
			r := dataset.NewRecord(fmt.Sprintf("grow-%d-%d", i, j), "ndt", "XA-01-001",
				time.Date(2025, 6, 3, 12, 0, 0, 0, time.UTC))
			r.DownloadMbps = float64(30 + j)
			rs[j] = r
		}
		if err := w.store.AddBatch(rs); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := w.mgr.Status()
		if st.SnapshotOffset > base {
			// The growth snapshot covered the backlog: the counters
			// restart below the threshold.
			if st.WALSinceSnapshotBytes >= growBytes {
				t.Fatalf("since-snapshot bytes = %d after a growth snapshot, want < %d",
					st.WALSinceSnapshotBytes, growBytes)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot fired from WAL growth alone; status %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMemoryOnlyBootUnchanged guards the default path: no -data-dir
// means no persistence manager and a pipeline-built world.
func TestMemoryOnlyBootUnchanged(t *testing.T) {
	w, err := openWorld(testLogger(), testSpec(), bootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.mgr != nil || w.recovered {
		t.Fatalf("memory-only boot produced mgr=%v recovered=%v", w.mgr, w.recovered)
	}
	if w.store.Len() == 0 {
		t.Fatal("empty store")
	}
}

// TestFirstBootBytesIdenticalAcrossWorkerCounts pins that a first boot's
// data dir is a function of the seed alone: first boots with 1, 2 and 4
// pipeline workers write the same WAL segments, META and snapshot body
// byte for byte, and the same MANIFEST apart from its SavedAt.
func TestFirstBootBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	var refDir string
	var ref map[string][]byte
	for _, workers := range []int{1, 2, 4} {
		spec := testSpec()
		// Enough jobs for several WAL frames, so workers interleave.
		spec.TestsPerCounty = 100
		spec.Workers = workers
		dir := t.TempDir()
		w, err := openWorld(testLogger(), spec, bootOptions{dataDir: dir})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := w.mgr.Close(); err != nil {
			t.Fatal(err)
		}
		files := dataDirFiles(t, dir)
		if ref == nil {
			refDir, ref = dir, files
			continue
		}
		if len(files) != len(ref) {
			t.Fatalf("workers=%d wrote %d files, workers=1 wrote %d", workers, len(files), len(ref))
		}
		for name, want := range ref {
			got, ok := files[name]
			if !ok {
				t.Fatalf("workers=%d wrote no %s (workers=1 did, in %s)", workers, name, refDir)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d: %s differs from the workers=1 boot's", workers, name)
			}
		}
	}
}

// dataDirFiles reads every file under dir by its slash-separated
// relative path; MANIFEST.json comes back with its saved_at cleared, the
// one field a wall clock writes.
func dataDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if rel == "MANIFEST.json" {
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				return err
			}
			if _, ok := m["saved_at"]; !ok {
				return fmt.Errorf("MANIFEST.json has no saved_at: %s", body)
			}
			delete(m, "saved_at")
			if body, err = json.Marshal(m); err != nil {
				return err
			}
		}
		files[filepath.ToSlash(rel)] = body
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestIncompleteFirstBootRefused: a data dir whose first boot stopped
// mid-simulation — its META and the first 25 of the world's records in
// the WAL, no snapshot — is refused with errIncompleteFirstBoot rather
// than served as the world. A dir with a snapshot but no completion key,
// as first boots wrote before the key existed, still opens.
func TestIncompleteFirstBootRefused(t *testing.T) {
	spec := testSpec()
	res, err := pipeline.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	all := res.Store.Select(dataset.Filter{})
	if len(all) <= 25 {
		t.Fatalf("world holds %d records, want more than 25", len(all))
	}
	dir := t.TempDir()
	mgr, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetMeta(map[string]string{
		"seed":             strconv.FormatUint(spec.Seed, 10),
		"tests_per_county": strconv.Itoa(spec.TestsPerCounty),
	}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Store().AddBatch(all[:25]); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := openWorld(testLogger(), spec, bootOptions{dataDir: dir})
	if !errors.Is(err, errIncompleteFirstBoot) {
		if err == nil {
			w.mgr.Close()
		}
		t.Fatalf("openWorld on a partial first boot = recovered %v, err %v; want errIncompleteFirstBoot",
			err == nil && w.recovered, err)
	}

	// A complete first boot, its META rewritten without the key: the
	// snapshot alone shows the run completed.
	dir = t.TempDir()
	w, err = openWorld(testLogger(), spec, bootOptions{dataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := w.mgr.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta[metaSimulated] != "true" {
		t.Fatalf("first boot META = %v, want %s=true", meta, metaSimulated)
	}
	delete(meta, metaSimulated)
	if err := w.mgr.SetMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := w.mgr.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = openWorld(testLogger(), spec, bootOptions{dataDir: dir})
	if err != nil {
		t.Fatalf("reopening a dir with a snapshot and no %s: %v", metaSimulated, err)
	}
	defer w.mgr.Close()
	if !w.recovered || w.store.Len() != len(all) {
		t.Fatalf("reopened dir: recovered=%v with %d records, want true with %d", w.recovered, w.store.Len(), len(all))
	}
}
