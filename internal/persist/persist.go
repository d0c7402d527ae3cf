// Package persist makes the in-memory dataset store durable: a
// segmented, CRC-framed append-only write-ahead log of record batches
// plus atomic point-in-time snapshots, so a server restarts by reading
// files instead of re-running the measurement pipeline.
//
// # Design
//
// Every batch entering the store is first framed and appended to the
// WAL (via the store's ingest hook, before any row is stored), so an
// acknowledged write is always recoverable. Batches are encoded in the
// same NDJSON wire form the dataset codecs use, wrapped in a
// [length, record-count, CRC32C] frame; segments rotate at a size
// threshold and are named by the record offset at which they start, so
// offset accounting survives compaction.
//
// Each append writes its frame and fsyncs inline under the log's
// mutex, and the store calls it from its ordered step, the one place a
// batch takes its sequence numbers: the WAL holds batches in the order
// Select returns them, and Append returns only once its frame is
// durable. Folding many small client batches into one frame, and so
// into one fsync, is the ingest drainer's job upstream. Options.NoSync
// only drops the syncs; the path is the same.
//
// Snapshots are cut on demand, and the manager can additionally signal
// a WAL-growth trigger (Options.SnapshotWALBytes): once the uncovered
// WAL exceeds the threshold, GrowthC fires so a background loop cuts a
// snapshot without waiting for its wall-clock tick, bounding how much
// replay a recovery can ever owe.
//
// A snapshot is the full record set at one instant, written in the
// WAL's own format: a segment magic followed by CRC-framed batches of
// 4096 records (snapFrameRecords), in Select order. The body and then a
// MANIFEST naming it and the WAL record offset it covers are each
// published by publishFile (temp file, fsync, rename, directory sync),
// as is the data dir's META. Compaction then drops WAL segments wholly
// covered by the manifest.
//
// The cut copies no records. Under Store.Quiesce, with every writer
// held out, the snapshot takes only a dataset.Cut — the length of the
// store's row log, O(1) — and the WAL offset, so the two describe the
// same point in time; the fence's hold time is the
// iqb_persist_snapshot_fence_seconds histogram. The row log is
// append-only, in insertion order, and stored rows never move, so once
// writers run again the rows below the cut stay exactly the snapshot's
// records: Cut.Each walks them in log order and rebuilds the records
// 4096 at a time through one reused chunk, which the frame encoder
// writes out.
//
// Recovery streams the manifest's snapshot frame by frame into the
// store (the body is never held whole in memory, and each frame's
// payload is parsed in place by dataset.ParseNDJSON), replays WAL frames
// past the covered offset, and tolerates a torn tail: a truncated or
// CRC-broken final WAL frame — the signature of a crash mid-append — is
// truncated away, while the same damage anywhere else, a snapshot
// included, is reported as corruption. One frame reader serves segment
// scan, replay and snapshot load. Because the store's aggregates are
// pure functions of the record multiset, a recovered store answers
// ScoreAll/ranking queries bit-identically to the one that wrote the
// log.
package persist

import (
	"fmt"
	"os"

	"iqb/internal/telemetry"
)

// DefaultSegmentBytes is the WAL rotation threshold: large enough that
// frame framing overhead is negligible, small enough that compaction
// reclaims space promptly.
const DefaultSegmentBytes = 8 << 20

// Options configures the durable store.
type Options struct {
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size; <= 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the WAL's file and directory syncs. Appends still
	// write in order under the log's mutex, but only survive an OS
	// crash if the page cache was flushed — acceptable for tests and
	// throughput benchmarks, not for production.
	NoSync bool
	// SnapshotWALBytes arms the manager's WAL-growth snapshot trigger:
	// once the WAL holds at least this many on-disk bytes not covered
	// by the latest snapshot, the manager signals Manager.GrowthC so a
	// snapshot loop can cut one without waiting for a wall-clock tick
	// — bounding replay-at-recovery work under heavy ingest. <= 0
	// disables the trigger.
	SnapshotWALBytes int64
	// Metrics, when non-nil, registers the WAL's and snapshot
	// manager's self-observability series (append/fsync/rollback
	// counters, the fsync-latency histogram, replay debt gauges) on the
	// given registry. All registered collectors read lock-free counters
	// or short in-memory mutexes, so a scrape never waits behind an
	// append's fsync.
	Metrics *telemetry.Registry

	// FS substitutes the WAL's file operations; nil means the real
	// filesystem. This is the fault-injection seam: persist's crash
	// tests (and httpapi's blocked-fsync scrape test) inject short
	// writes, fsync errors, and kill-points here. Production code
	// never sets it.
	FS WALFS
}

func (o Options) fileSystem() WALFS {
	if o.FS == nil {
		return osFS{}
	}
	return o.FS
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// syncDir fsyncs a directory so a just-created, renamed, or removed
// directory entry is durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing dir %s: %w", path, err)
	}
	return nil
}
