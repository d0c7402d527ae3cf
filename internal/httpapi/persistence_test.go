package httpapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/persist"
)

// TestSnapshotEndpointAndHealthStatus exercises the durable-store
// control surface: POST /v1/snapshot cuts a snapshot whose offset then
// shows up in /v1/health, and both degrade cleanly on a memory-only
// server.
func TestSnapshotEndpointAndHealthStatus(t *testing.T) {
	memStore, db := buildWorld(t)
	m, err := persist.Open(t.TempDir(), persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the in-memory world into the WAL-backed store.
	if err := m.Store().AddBatch(memStore.Select(dataset.Filter{})); err != nil {
		t.Fatal(err)
	}
	ts := serve(t, Config{Store: m.Store(), Persist: m, Geo: db})
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Persistence == nil {
		t.Fatal("health omits persistence on a persistence-backed server")
	}
	if health.Persistence.SnapshotOffset != 0 {
		t.Fatalf("snapshot offset before any snapshot = %d", health.Persistence.SnapshotOffset)
	}
	if got, want := health.Persistence.WALRecords, uint64(m.Store().Len()); got != want {
		t.Fatalf("health WAL records = %d, want %d", got, want)
	}

	// Before any snapshot, everything in the WAL is "since snapshot" —
	// the growth trigger's view of the world must be observable here.
	if got, want := health.Persistence.WALSinceSnapshotRecords, health.Persistence.WALRecords; got != want {
		t.Fatalf("pre-snapshot since-snapshot records = %d, want all %d WAL records", got, want)
	}
	if health.Persistence.WALSinceSnapshotBytes <= 0 {
		t.Fatal("pre-snapshot since-snapshot bytes not reported")
	}

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Snapshot.Records != m.Store().Len() {
		t.Fatalf("snapshot covered %d records, store holds %d", snap.Snapshot.Records, m.Store().Len())
	}
	if _, err := os.Stat(snap.Snapshot.Path); err != nil {
		t.Fatalf("snapshot body missing: %v", err)
	}
	health, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := health.Persistence.SnapshotOffset; got != snap.Snapshot.WALOffset {
		t.Fatalf("health snapshot offset = %d, endpoint reported %d", got, snap.Snapshot.WALOffset)
	}
	if got := health.Persistence.WALSinceSnapshotRecords; got != 0 {
		t.Fatalf("since-snapshot records = %d right after a snapshot, want 0", got)
	}

	// New ingest shows up in the since-snapshot counters, so an
	// operator (or the growth trigger) can see replay debt accumulate.
	extra := memStore.Select(dataset.Filter{})[0]
	extra.ID = "since-snapshot-probe"
	if err := m.Store().Add(extra); err != nil {
		t.Fatal(err)
	}
	health, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := health.Persistence.WALSinceSnapshotRecords; got != 1 {
		t.Fatalf("since-snapshot records after one post-snapshot add = %d, want 1", got)
	}
	if health.Persistence.WALSinceSnapshotBytes <= 0 {
		t.Fatal("since-snapshot bytes after post-snapshot add not reported")
	}
}

func TestSnapshotEndpointMemoryOnly(t *testing.T) {
	ts := serve(t, Config{})
	c := &Client{BaseURL: ts.URL}
	if _, err := c.Snapshot(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "persistence not enabled") {
		t.Fatalf("memory-only snapshot err = %v, want 'persistence not enabled'", err)
	}
	health, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if health.Persistence != nil {
		t.Fatalf("memory-only health reports persistence: %+v", health.Persistence)
	}
}

// TestCloseDrainsIngestBeforeWAL pins Close's order with the WAL fsync
// of one POST /v1/ingest parked and a second request admitted behind
// it: Close waits for both instead of closing the WAL under the queued
// one, both requests get their 202, and a fresh manager on the
// directory recovers every record.
func TestCloseDrainsIngestBeforeWAL(t *testing.T) {
	dir := t.TempDir()
	fs := newGateFS()
	m, err := persist.Open(dir, persist.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	srv := open(t, Config{Store: m.Store(), Persist: m})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	fs.blocking.Store(true)
	reqDone := make(chan error, 2)
	post := func(ids ...string) {
		resp, err := ingestIDs(&Client{BaseURL: ts.URL}, ids...)
		if err == nil && resp.Accepted != len(ids) {
			err = fmt.Errorf("202 body = %+v, want %d accepted", resp, len(ids))
		}
		reqDone <- err
	}
	go post("parked-0", "parked-1")
	select {
	case <-fs.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest never reached the gated fsync")
	}
	go post("queued-0", "queued-1")
	waitForCond(t, func() bool { return srv.ingestq.Stats().QueuedRecords == 4 })
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (err %v) while an admitted batch's fsync was parked", err)
	case <-time.After(100 * time.Millisecond):
	}

	fs.blocking.Store(false)
	close(fs.gate)
	for _, done := range []chan error{reqDone, reqDone, closeDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ingest or Close never finished after the gate opened")
		}
	}

	re, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Store().Len(); got != 4 {
		t.Fatalf("recovered %d records, want the 4 acknowledged", got)
	}
}

// TestCloseStopsSnapshotLoop: with the growth trigger armed so every
// commit signals the snapshot loop, Close returns only once the loop
// has exited, and the data directory stays as Close left it.
func TestCloseStopsSnapshotLoop(t *testing.T) {
	dir := t.TempDir()
	m, err := persist.Open(dir, persist.Options{NoSync: true, SnapshotWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := open(t, Config{Store: m.Store(), Persist: m})
	for i := 0; m.Status().SnapshotOffset == 0 || i < 20; i++ {
		if err := m.Store().Add(ingestRecord(fmt.Sprintf("grow-%d", i), "ndt", "XA-01-001")); err != nil {
			t.Fatal(err)
		}
		if i > 10000 {
			t.Fatal("no growth snapshot after 10000 commits")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.snapDone:
	default:
		t.Fatal("snapshot loop still running after Close returned")
	}
	listing := func() string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				fmt.Fprintln(&b, e.Name(), info.Size(), info.ModTime().UnixNano())
			}
		}
		return b.String()
	}
	closed := listing()
	// Nothing may run after Close, so no window is too short to catch a
	// leftover loop; this one spans a few snapshot cuts.
	time.Sleep(50 * time.Millisecond)
	if now := listing(); now != closed {
		t.Fatalf("data dir changed after Close:\nat Close:\n%s\nlater:\n%s", closed, now)
	}
}
