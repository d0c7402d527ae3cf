package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/telemetry"
)

const (
	walSubdir = "wal"
	metaName  = "META.json"
)

// Recovery summarizes what Open reconstructed from disk.
type Recovery struct {
	// FromSnapshot is true when a manifest + snapshot were loaded.
	FromSnapshot bool `json:"from_snapshot"`
	// SnapshotRecords is how many records the snapshot contributed.
	SnapshotRecords int `json:"snapshot_records"`
	// WALBatches and WALRecords count what replay contributed on top.
	WALBatches int `json:"wal_batches"`
	WALRecords int `json:"wal_records"`
	// WALDuplicateBatches counts replayed batches skipped because the
	// store already held them — the footprint of a writer retrying a
	// batch whose append was durable but reported an error (rotation
	// or fsync failure after the frame hit disk).
	WALDuplicateBatches int `json:"wal_duplicate_batches,omitempty"`
	// TornTail is true when the WAL ended in a truncated or
	// checksum-broken frame that was cut away — a crash mid-append.
	TornTail bool `json:"torn_tail"`
	// ScavengedSegments names leftover WAL segment files (abandoned by
	// a rotation whose unlink failed) that open removed.
	ScavengedSegments []string `json:"scavenged_segments,omitempty"`
	// Elapsed is how long recovery took.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// HasData reports whether the directory held any durable state.
func (r Recovery) HasData() bool {
	return r.FromSnapshot || r.WALRecords > 0
}

// Status is a point-in-time view of the durable store, shaped for the
// /v1/health endpoint.
type Status struct {
	Dir         string `json:"dir"`
	WALRecords  uint64 `json:"wal_records"`
	WALSegments int    `json:"wal_segments"`
	WALBytes    int64  `json:"wal_bytes"`
	// WALSinceSnapshotRecords and WALSinceSnapshotBytes measure WAL
	// growth past the latest snapshot — the records a recovery would
	// replay and the on-disk bytes it would read to do so (segment
	// granularity). The WAL-growth snapshot trigger fires on the byte
	// figure.
	WALSinceSnapshotRecords uint64    `json:"wal_since_snapshot_records"`
	WALSinceSnapshotBytes   int64     `json:"wal_since_snapshot_bytes"`
	WALWrite                WALStats  `json:"wal_write"`
	SnapshotOffset          uint64    `json:"snapshot_offset"`
	SnapshotRecords         int       `json:"snapshot_records"`
	SnapshotAt              time.Time `json:"snapshot_at"`
	Recovery                Recovery  `json:"recovery"`
}

// Manager owns one data directory: it recovers a dataset store from
// snapshot + WAL on Open, tees every subsequent batch to the WAL via
// the store's ingest hook, and cuts snapshots (compacting covered WAL
// segments) on demand. Safe for concurrent use.
type Manager struct {
	dir        string
	log        *Log
	store      *dataset.Store
	removeHook func() // deregisters the WAL tee from the store's hook chain

	// growBytes arms the WAL-growth snapshot trigger; growthC carries
	// its (coalesced) signals to whoever runs the snapshot loop.
	growBytes int64
	growthC   chan struct{}

	// Lock-free snapshot-activity counters, exposed as telemetry
	// collectors when Options.Metrics is set.
	snapshots     atomic.Uint64
	growthSignals atomic.Uint64
	// fenceSeconds times how long each snapshot holds writers out.
	fenceSeconds *telemetry.Histogram

	// snapMu serializes snapshots; mu guards only the status fields,
	// so Status never waits behind a snapshot's file I/O.
	snapMu      sync.Mutex
	mu          sync.Mutex
	snapOffset  uint64
	snapRecords int
	snapAt      time.Time
	recovery    Recovery
}

// Open recovers (or initializes) the durable store in dir and returns a
// manager whose store is wired to tee every ingested batch to the WAL.
// Recovery order: snapshot first, then WAL frames past the manifest's
// covered offset — so it restores exactly the acknowledged writes, in
// acknowledgment order, without re-running any pipeline.
func Open(dir string, o Options) (*Manager, error) {
	started := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	// The snapshot streams into the store before any hook is installed;
	// on error the partly loaded store is dropped with the manager.
	store := dataset.NewStore()
	man, hasSnap, err := loadSnapshot(dir, store)
	if err != nil {
		return nil, err
	}
	log, err := OpenLog(filepath.Join(dir, walSubdir), o)
	if err != nil {
		return nil, err
	}
	if log.Offset() < man.WALOffset {
		return nil, errors.Join(
			fmt.Errorf("persist: WAL ends at record %d but the snapshot covers %d (missing WAL segments)",
				log.Offset(), man.WALOffset),
			log.Close())
	}

	m := &Manager{dir: dir, log: log, store: store,
		growBytes: o.SnapshotWALBytes, growthC: make(chan struct{}, 1),
		snapOffset: man.WALOffset, snapRecords: man.Records, snapAt: man.SavedAt}
	m.registerMetrics(o.Metrics)
	rec := Recovery{FromSnapshot: hasSnap, SnapshotRecords: man.Records, TornTail: log.TornTail(),
		ScavengedSegments: log.Scavenged()}
	err = log.Replay(man.WALOffset, func(batch []dataset.Record) error {
		if err := store.AddBatch(batch); err != nil {
			// Append acks durability the instant the frame lands; an
			// error after that (rotation, fsync) makes the writer
			// retry an already-logged batch, so replay must be
			// idempotent over exact duplicates.
			if errors.Is(err, dataset.ErrDuplicate) {
				rec.WALDuplicateBatches++
				return nil
			}
			return err
		}
		rec.WALBatches++
		rec.WALRecords += len(batch)
		return nil
	})
	if err != nil {
		return nil, errors.Join(fmt.Errorf("persist: replaying WAL: %w", err), log.Close())
	}
	// Only now install the tee: replayed batches must not be re-logged.
	// The tee joins the store's ordered hook chain, so other observers
	// (e.g. a scored-region cache) can coexist with the WAL on the same
	// store. With the growth trigger armed, a commit-phase observer
	// rides along: it fires after the batch is both durable and
	// shard-visible, and only checks a couple of counters, so it adds
	// nothing measurable to the write path.
	hooks := dataset.Hooks{Ingest: log.Append}
	if m.growBytes > 0 {
		hooks.Commit = m.noteGrowth
	}
	m.removeHook = store.AddHooks(hooks)
	if m.growBytes > 0 && m.log.SizePast(m.snapOffset) >= m.growBytes {
		// The recovered dir already owes more replay than the
		// threshold allows (e.g. a crash outran the snapshot loop):
		// signal immediately so the loop snapshots soon after boot.
		m.signalGrowth()
	}
	rec.Elapsed = time.Since(started)
	m.recovery = rec
	return m, nil
}

// noteGrowth is the commit-phase hook behind the WAL-growth snapshot
// trigger: when the uncovered WAL crosses the configured threshold it
// nudges growthC (non-blocking; signals coalesce).
func (m *Manager) noteGrowth(rs []dataset.Record) {
	m.mu.Lock()
	off := m.snapOffset
	m.mu.Unlock()
	if m.log.SizePast(off) >= m.growBytes {
		m.signalGrowth()
	}
}

func (m *Manager) signalGrowth() {
	m.growthSignals.Add(1)
	select {
	case m.growthC <- struct{}{}:
	default:
	}
}

// registerMetrics exposes the manager's snapshot activity on r (nil
// means run uninstrumented). Collectors read atomics or the short
// status mutex — never snapMu, so a scrape cannot wait behind an
// in-flight snapshot's file I/O.
func (m *Manager) registerMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("iqb_snapshots_total",
		"Snapshots cut (wall-clock ticks and growth-trigger alike).", nil,
		func() float64 { return float64(m.snapshots.Load()) })
	r.CounterFunc("iqb_snapshot_growth_signals_total",
		"WAL-growth snapshot trigger firings (coalesced signals counted individually).", nil,
		func() float64 { return float64(m.growthSignals.Load()) })
	m.fenceSeconds = r.Histogram("iqb_persist_snapshot_fence_seconds",
		"Time each snapshot holds ingest writers out while it cuts the store and reads the WAL offset.", nil)
	r.GaugeFunc("iqb_wal_since_snapshot_bytes",
		"On-disk WAL bytes a recovery would replay past the latest snapshot.", nil,
		func() float64 {
			m.mu.Lock()
			off := m.snapOffset
			m.mu.Unlock()
			return float64(m.log.SizePast(off))
		})
}

// GrowthC delivers a signal each time the WAL grows past
// Options.SnapshotWALBytes since the latest snapshot (coalesced; never
// signaled when the trigger is disabled). Receivers should respond with
// SnapshotIfGrown, which re-checks the condition so a raced wall-clock
// snapshot does not cause a redundant one.
func (m *Manager) GrowthC() <-chan struct{} { return m.growthC }

// Store is the recovered, WAL-backed dataset store.
func (m *Manager) Store() *dataset.Store { return m.store }

// Recovery reports what Open reconstructed.
func (m *Manager) Recovery() Recovery {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// Snapshot cuts an atomic point-in-time snapshot and compacts WAL
// segments it covers. The store is quiesced only while the cut and the
// WAL offset are captured; the records are read and written with
// ingestion already flowing again.
func (m *Manager) Snapshot() (SnapshotInfo, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return m.snapshotLocked()
}

// SnapshotIfGrown cuts a snapshot only if the WAL still exceeds the
// growth threshold — the receiving end of GrowthC. Re-checking under
// the snapshot lock means a signal that raced a wall-clock snapshot
// (which already covered the growth) becomes a cheap no-op instead of
// a redundant full-store snapshot. cut reports whether one was taken.
func (m *Manager) SnapshotIfGrown() (info SnapshotInfo, cut bool, err error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	if m.growBytes <= 0 {
		return SnapshotInfo{}, false, nil
	}
	m.mu.Lock()
	off := m.snapOffset
	m.mu.Unlock()
	if m.log.SizePast(off) < m.growBytes {
		return SnapshotInfo{}, false, nil
	}
	info, err = m.snapshotLocked()
	return info, err == nil, err
}

// snapshotLocked is the snapshot body; the caller holds snapMu. The
// fence only cuts the store and reads the WAL offset, O(shards); the
// records stream from the cut with writers running again.
func (m *Manager) snapshotLocked() (SnapshotInfo, error) {
	var (
		cut *dataset.Cut
		off uint64
	)
	stop := m.fenceSeconds.Time()
	m.store.Quiesce(func() {
		cut = m.store.Cut()
		off = m.log.Offset()
	})
	stop()
	info, err := writeSnapshot(m.dir, cut, off, time.Now())
	if err != nil {
		return SnapshotInfo{}, err
	}
	if err := m.log.Compact(off); err != nil {
		return SnapshotInfo{}, err
	}
	m.mu.Lock()
	m.snapOffset = info.WALOffset
	m.snapRecords = info.Records
	m.snapAt = info.SavedAt
	m.mu.Unlock()
	m.snapshots.Add(1)
	return info, nil
}

// Status reports the durable store's current shape.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	off := m.log.Offset()
	return Status{
		Dir:                     m.dir,
		WALRecords:              off,
		WALSegments:             m.log.Segments(),
		WALBytes:                m.log.SizeBytes(),
		WALSinceSnapshotRecords: off - m.snapOffset,
		WALSinceSnapshotBytes:   m.log.SizePast(m.snapOffset),
		WALWrite:                m.log.Stats(),
		SnapshotOffset:          m.snapOffset,
		SnapshotRecords:         m.snapRecords,
		SnapshotAt:              m.snapAt,
		Recovery:                m.recovery,
	}
}

// SetMeta durably records small key/value metadata about the data dir
// (the iqbserver stores its world seed here so a restart rebuilds the
// same geography the records were measured against).
func (m *Manager) SetMeta(meta map[string]string) error {
	return publishJSON(m.dir, metaName, meta)
}

// Meta reads the metadata written by SetMeta; a missing file yields an
// empty map.
func (m *Manager) Meta() (map[string]string, error) {
	body, err := os.ReadFile(filepath.Join(m.dir, metaName))
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading meta: %w", err)
	}
	meta := map[string]string{}
	if err := json.Unmarshal(body, &meta); err != nil {
		return nil, fmt.Errorf("persist: decoding meta: %w", err)
	}
	return meta, nil
}

// Close detaches the WAL tee from the store's hook chain and closes the
// WAL. The store remains usable in memory; further writes are no longer
// persisted. Other hook-chain observers are untouched.
func (m *Manager) Close() error {
	m.removeHook()
	return m.log.Close()
}
