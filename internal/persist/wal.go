package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"iqb/internal/dataset"
	"iqb/internal/telemetry"
)

// WAL on-disk format. Each segment file starts with an 8-byte magic and
// holds a sequence of frames:
//
//	[4B payload length][4B record count][4B CRC32C of payload][payload]
//
// where the payload is an NDJSON batch in the dataset wire form.
// Segments are named by the record offset of their first record,
// zero-padded so lexical order is offset order; the name, not a file
// header, carries the offset so accounting survives compaction. A
// snapshot body is the same format, read by the same readFrames.
const (
	segMagic     = "IQBWAL1\n"
	frameHdrSize = 12
	segSuffix    = ".wal"
	// maxFrameBytes bounds a single frame; anything larger in a header
	// is treated as damage, not data.
	maxFrameBytes = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a frame that ends before its header says it should, or
// fails its checksum — what a crash mid-append leaves behind. It is
// recoverable at the tail of the last segment and corruption anywhere
// else.
var errTorn = errors.New("persist: torn frame")

// errLogClosed is returned by appends against a closed log.
var errLogClosed = errors.New("persist: log is closed")

// WALFile is the file-operation surface the WAL uses. *os.File
// implements it; persist's crash tests substitute a fault-injecting
// implementation (short writes, fsync errors, kill-points mid-frame) to
// make the durability contract executable.
type WALFile interface {
	io.Reader
	io.Writer
	io.Closer
	WriteAt(p []byte, off int64) (n int, err error)
	Truncate(size int64) error
	Sync() error
}

// WALFS is the filesystem behind the WAL's segment files. Production
// code always uses the real filesystem (osFS); tests inject faults via
// Options.FS.
type WALFS interface {
	OpenFile(name string, flag int, perm os.FileMode) (WALFile, error)
	Remove(name string) error
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (WALFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }
func (osFS) SyncDir(dir string) error { return syncDir(dir) }

// walSegment is a sealed (non-active) segment.
type walSegment struct {
	name  string
	start uint64 // record offset of the segment's first record
	size  int64  // on-disk bytes, fixed at seal time
}

// WALStats counts the write path's work over this process's lifetime
// (not persisted). Each append is one frame and, unless NoSync, one
// fsync; folding many client batches into one frame is the ingest
// drainer's job, upstream of the log.
type WALStats struct {
	// AppendedFrames counts frames durably appended (one per batch).
	AppendedFrames uint64 `json:"appended_frames"`
	// Fsyncs counts syncs performed to make frames durable (segment
	// creation and compaction syncs are not included).
	Fsyncs uint64 `json:"fsyncs"`
	// Rollbacks counts failed appends rolled back to the pre-append
	// boundary (write or sync errors).
	Rollbacks uint64 `json:"rollbacks"`
	// Wedges counts rollbacks whose truncate also failed, wedging the
	// log until a reopen (at most one per process, since a wedged log
	// refuses further appends).
	Wedges uint64 `json:"wedges"`
}

// Log is a segmented append-only write-ahead log of dataset record
// batches. It is safe for concurrent use.
//
// Append frames, writes, fsyncs (not with Options.NoSync) and rotates
// inline under l.mu, so frames land in the order their Appends take the
// mutex. A failed write or sync is rolled back (the file truncated to
// the pre-append boundary) and fails that append alone; a rollback that
// fails wedges the log.
//
// Metadata readers (Offset, Stats, SizeBytes, SizePast, Segments) never
// take l.mu: counters are atomics and segment geometry sits behind the
// short segMu, so health checks and metric scrapes return immediately
// even while an append holds l.mu across an fsync.
type Log struct {
	dir    string
	segMax int64
	noSync bool
	fs     WALFS

	// Lock-free write-path counters. Writers bump these while holding
	// l.mu (so they stay mutually consistent with the file), but
	// readers only Load — a scrape never queues behind an fsync.
	offset         atomic.Uint64 // records appended across the log's lifetime
	appendedFrames atomic.Uint64
	fsyncs         atomic.Uint64
	rollbacks      atomic.Uint64
	wedges         atomic.Uint64

	// segMu guards the segment geometry below. Mutators hold BOTH
	// l.mu (serializing against other mutators and the file itself)
	// and segMu for the metadata write; readers take just one of the
	// two, so SizeBytes/SizePast/Segments stay responsive while l.mu
	// is held across a write+fsync.
	segMu       sync.Mutex
	activeStart uint64 // record offset at which the active segment starts
	activeSize  int64  // bytes written to the active segment
	old         []walSegment

	mu         sync.Mutex
	active     WALFile
	activeName string
	torn       bool     // whether open found and truncated a torn tail
	scavenged  []string // leftover segment files removed at open
	closed     bool
	// wedged is set when a failed write could not be rolled back: a
	// possibly-partial frame is stuck mid-file, and appending past it
	// would put durable frames behind a tear that the next recovery
	// truncates away. A wedged log fails all appends and compactions
	// until a reopen re-establishes a clean tail.
	wedged bool

	// Owned telemetry (nil-safe no-op when no registry is attached):
	// the distribution the counters above cannot carry.
	fsyncSeconds *telemetry.Histogram // latency of each durability fsync
}

// errWedged fails operations on a log whose last failed write could not
// be rolled back; reopening truncates the tear and recovers.
var errWedged = errors.New("persist: log is wedged behind an unrollbackable partial write; reopen to recover")

func segName(start uint64) string {
	return fmt.Sprintf("%020d%s", start, segSuffix)
}

// segScan is one segment's scan result during open.
type segScan struct {
	seg     walSegment
	records uint64
	goodEnd int64
	torn    bool
}

// OpenLog opens (or creates) the WAL in dir, verifying every sealed
// segment and recovering the active segment's tail: a torn final frame
// is truncated away so subsequent appends start at a clean boundary.
// Leftover segment files abandoned by a rotation whose unlink failed
// are scavenged (see scavengeLeftovers) instead of bricking the reopen
// with a false corruption refusal.
func OpenLog(dir string, o Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating wal dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: reading wal dir: %w", err)
	}
	var segs []walSegment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("persist: segment %s has a malformed offset name: %w", name, err)
		}
		segs = append(segs, walSegment{name: name, start: start})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	l := &Log{dir: dir, segMax: o.segmentBytes(), noSync: o.NoSync, fs: o.fileSystem()}
	l.registerMetrics(o.Metrics)

	scans := make([]segScan, 0, len(segs))
	for _, seg := range segs {
		records, goodEnd, torn, err := scanSegment(l.fs, filepath.Join(dir, seg.name))
		if err != nil {
			return nil, fmt.Errorf("persist: segment %s: %w", seg.name, err)
		}
		scans = append(scans, segScan{seg: seg, records: records, goodEnd: goodEnd, torn: torn})
	}
	kept, err := l.scavengeLeftovers(scans)
	if err != nil {
		return nil, err
	}

	if len(kept) == 0 {
		if err := l.createSegmentLocked(0); err != nil {
			return nil, err
		}
	}
	for i, sc := range kept {
		seg, records, goodEnd, torn := sc.seg, sc.records, sc.goodEnd, sc.torn
		last := i == len(kept)-1
		if torn && !last {
			return nil, fmt.Errorf("persist: segment %s: torn frame in sealed segment (corruption)", seg.name)
		}
		if !last {
			if want := kept[i+1].seg.start; seg.start+records != want {
				return nil, fmt.Errorf("persist: segment %s holds %d records from offset %d but next segment starts at %d (corruption)",
					seg.name, records, seg.start, want)
			}
			seg.size = goodEnd // a clean sealed segment ends at its last frame
			l.old = append(l.old, seg)
			continue
		}
		// Active (last) segment: truncate any torn tail and reopen for
		// appending.
		path := filepath.Join(dir, seg.name)
		if torn {
			if err := truncateSegment(l.fs, path, goodEnd); err != nil {
				return nil, err
			}
			l.torn = true
			if goodEnd < int64(len(segMagic)) {
				goodEnd = int64(len(segMagic))
			}
		}
		f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("persist: opening active segment: %w", err)
		}
		l.active = f
		l.activeName = seg.name
		l.activeStart = seg.start
		l.activeSize = goodEnd
		l.offset.Store(seg.start + records)
	}
	return l, nil
}

// scavengeLeftovers removes segment files abandoned by a failed
// rotation whose unlink also failed. Such a leftover holds no complete
// frames (at most the magic, possibly torn), yet its offset-named start
// sits inside a neighbor's record range, so the contiguity check would
// refuse the whole directory as corrupt — durable, acknowledged data
// bricked by an empty file.
//
// The detection rule follows from the rotation invariants: a leftover
// is exactly a clean magic and nothing more (the abandoned file was
// synced after its magic and never received a frame), and a sealed
// segment is never legitimately empty (rotation and compaction only
// seal a segment that received frames). So a frameless untorn non-last
// segment is a leftover; a frameless LAST segment is a leftover only
// when the previous kept segment's records extend past its start —
// otherwise it is a legitimately fresh active segment. A frameless
// segment with trailing garbage (torn) is NOT a leftover: that shape
// is a damaged sealed segment, and it still fails open as corruption.
// Only files with zero complete frames are ever removed, so no durable
// record can be lost, and the contiguity check still runs on the
// survivors.
func (l *Log) scavengeLeftovers(scans []segScan) ([]segScan, error) {
	kept := make([]segScan, 0, len(scans))
	for i, sc := range scans {
		frameless := sc.records == 0 && !sc.torn && sc.goodEnd <= int64(len(segMagic))
		leftover := false
		if frameless {
			if i < len(scans)-1 {
				leftover = true
			} else if n := len(kept); n > 0 {
				prev := kept[n-1]
				leftover = prev.seg.start+prev.records > sc.seg.start
			}
		}
		if !leftover {
			kept = append(kept, sc)
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, sc.seg.name)); err != nil {
			return nil, fmt.Errorf("persist: scavenging leftover segment %s: %w", sc.seg.name, err)
		}
		l.scavenged = append(l.scavenged, sc.seg.name)
	}
	if len(l.scavenged) > 0 && !l.noSync {
		// Make the unlinks durable before trusting the surviving chain.
		if err := l.fs.SyncDir(l.dir); err != nil {
			return nil, fmt.Errorf("persist: syncing wal dir after scavenge: %w", err)
		}
	}
	return kept, nil
}

// registerMetrics exposes the log's write-path counters and latency
// distributions on r (nil means run uninstrumented). The collectors
// only Load atomics or take segMu, honoring the registry's non-blocking
// scrape contract: none of them can queue behind l.mu.
func (l *Log) registerMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	l.fsyncSeconds = r.Histogram("iqb_wal_fsync_seconds",
		"Latency of WAL append fsyncs (one per appended frame).", nil)
	r.CounterFunc("iqb_wal_appended_frames_total",
		"Frames durably appended to the WAL (one per batch).", nil,
		func() float64 { return float64(l.appendedFrames.Load()) })
	r.CounterFunc("iqb_wal_fsyncs_total",
		"Fsyncs performed to make WAL frames durable.", nil,
		func() float64 { return float64(l.fsyncs.Load()) })
	r.CounterFunc("iqb_wal_rollbacks_total",
		"Failed appends rolled back to the pre-append boundary.", nil,
		func() float64 { return float64(l.rollbacks.Load()) })
	r.CounterFunc("iqb_wal_wedges_total",
		"Rollbacks whose truncate failed, wedging the log until reopen.", nil,
		func() float64 { return float64(l.wedges.Load()) })
	r.CounterFunc("iqb_wal_records_total",
		"Records appended over the log's lifetime (the WAL offset).", nil,
		func() float64 { return float64(l.offset.Load()) })
	r.GaugeFunc("iqb_wal_size_bytes",
		"On-disk bytes across all WAL segments.", nil,
		func() float64 { return float64(l.SizeBytes()) })
	r.GaugeFunc("iqb_wal_segments",
		"WAL segment files currently on disk.", nil,
		func() float64 { return float64(l.Segments()) })
}

// truncateSegment cuts a segment back to its last clean frame boundary,
// rewriting the magic if the tear landed inside it, and fsyncs.
func truncateSegment(fs WALFS, path string, goodEnd int64) (err error) {
	f, ferr := fs.OpenFile(path, os.O_RDWR, 0o644)
	if ferr != nil {
		return fmt.Errorf("persist: opening torn segment: %w", ferr)
	}
	// The segment was truncated and fsynced for durability; a close
	// failure afterwards still puts that durability in question.
	defer func() { err = errors.Join(err, f.Close()) }()
	if goodEnd < int64(len(segMagic)) {
		// The crash landed inside the segment header (mid-rotation):
		// reset to an empty, well-formed segment.
		goodEnd = 0
	}
	if err := f.Truncate(goodEnd); err != nil {
		return fmt.Errorf("persist: truncating torn tail: %w", err)
	}
	if goodEnd == 0 {
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			return fmt.Errorf("persist: rewriting segment magic: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("persist: syncing truncated segment: %w", err)
	}
	return nil
}

// scanSegment validates one segment's frames without decoding payloads.
// It returns the record count, the byte offset just past the last clean
// frame, and whether the segment ends in a torn frame (a segment shorter
// than its magic — a crash during creation — counts as torn).
func scanSegment(fs WALFS, path string) (records uint64, goodEnd int64, torn bool, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	goodEnd, err = readFrames(f, func(count uint32, _ []byte) error {
		records += uint64(count)
		return nil
	})
	if errors.Is(err, errTorn) {
		return records, goodEnd, true, nil
	}
	return records, goodEnd, false, err
}

// readFrames is the one reader of the frame format, shared by segment
// scan, replay and snapshot load. It checks the magic, then calls fn
// with each frame's record count and payload (valid only during the
// call), and returns the offset just past the last whole frame. errTorn
// means the bytes give out mid-frame or a checksum fails. The payload
// buffer grows only as bytes arrive, so a damaged header claiming a
// huge frame costs no more memory than the file holds.
func readFrames(r io.Reader, fn func(count uint32, payload []byte) error) (goodEnd int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, errTorn
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("bad segment magic %q", magic)
	}
	goodEnd = int64(len(segMagic))
	var payload bytes.Buffer
	for {
		var hdr [frameHdrSize]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return goodEnd, nil
			}
			return goodEnd, errTorn // partial header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		count := binary.LittleEndian.Uint32(hdr[4:8])
		sum := binary.LittleEndian.Uint32(hdr[8:12])
		if length == 0 || length > maxFrameBytes {
			return goodEnd, errTorn
		}
		payload.Reset()
		if n, _ := io.CopyN(&payload, br, int64(length)); n < int64(length) {
			return goodEnd, errTorn // partial payload
		}
		if crc32.Checksum(payload.Bytes(), crcTable) != sum {
			return goodEnd, errTorn
		}
		if err := fn(count, payload.Bytes()); err != nil {
			return goodEnd, err
		}
		goodEnd += frameHdrSize + int64(length)
	}
}

// decodeFrame decodes a frame payload back into its batch, in place,
// checking it against the record count in the frame header.
func decodeFrame(count uint32, payload []byte) ([]dataset.Record, error) {
	rs, err := dataset.ParseNDJSON(payload)
	if err != nil {
		return nil, err
	}
	if uint32(len(rs)) != count {
		return nil, fmt.Errorf("batch decodes to %d records, header says %d", len(rs), count)
	}
	return rs, nil
}

// createSegmentLocked starts a fresh segment at the given record offset
// and makes it the active one. The caller holds l.mu (or is OpenLog).
func (l *Log) createSegmentLocked(start uint64) error {
	name := segName(start)
	path := filepath.Join(l.dir, name)
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating segment: %w", err)
	}
	// A half-created segment must not survive a failed rotation, or
	// the retry's O_EXCL open would fail forever on the leftover.
	abandon := func() {
		//iqbvet:ignore syncerr the half-created segment is removed right after; the open/write error is the one that matters
		f.Close()
		l.fs.Remove(path)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		abandon()
		return fmt.Errorf("persist: writing segment magic: %w", err)
	}
	if !l.noSync {
		if err := f.Sync(); err != nil {
			abandon()
			return fmt.Errorf("persist: syncing new segment: %w", err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			abandon()
			return err
		}
	}
	if l.active != nil {
		if err := l.active.Close(); err != nil {
			abandon()
			return fmt.Errorf("persist: closing sealed segment: %w", err)
		}
	}
	l.segMu.Lock()
	if l.active != nil {
		l.old = append(l.old, walSegment{name: l.activeName, start: l.activeStart, size: l.activeSize})
	}
	l.activeStart = start
	l.activeSize = int64(len(segMagic))
	l.segMu.Unlock()
	l.active = f
	l.activeName = name
	l.offset.Store(start)
	return nil
}

// encodeFrame appends a batch to buf as one [len|count|crc|payload]
// frame. Reusing buf across frames (as snapshots do) keeps encoding
// from allocating a fresh payload per frame.
func encodeFrame(buf *bytes.Buffer, rs []dataset.Record) error {
	start := buf.Len()
	var hdr [frameHdrSize]byte
	buf.Write(hdr[:]) // filled in below
	if err := dataset.WriteNDJSON(buf, rs); err != nil {
		return fmt.Errorf("persist: encoding batch: %w", err)
	}
	frame := buf.Bytes()[start:]
	payload := frame[frameHdrSize:]
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("persist: batch frame %d bytes exceeds %d; split the batch", len(payload), maxFrameBytes)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(rs)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.Checksum(payload, crcTable))
	return nil
}

// Append frames the batch and makes it durable. When Append returns nil
// the batch is on disk (fsynced, unless the log was opened with
// NoSync); a non-nil error means the batch must be treated as not
// written (a torn partial write is truncated away on the next open).
//
// Concurrent callers take turns on l.mu, one frame and one fsync each;
// the store calls Append from its ordered step, so frames land in the
// order the store gives its batches sequence numbers.
func (l *Log) Append(rs []dataset.Record) error {
	if len(rs) == 0 {
		return nil
	}
	var frame bytes.Buffer
	if err := encodeFrame(&frame, rs); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if l.wedged {
		return errWedged
	}
	if _, err := l.active.Write(frame.Bytes()); err != nil {
		l.rollbackLocked()
		return fmt.Errorf("persist: appending frame of %d records: %w", len(rs), err)
	}
	if !l.noSync {
		stop := l.fsyncSeconds.Time()
		//iqbvet:ignore lockio the fsync must finish before l.mu lets the next frame follow, so frames stay in order; metadata readers use atomics and segMu, and Close waits here by design so an in-flight append is acknowledged durably
		err := l.active.Sync()
		stop()
		if err != nil {
			l.rollbackLocked()
			return fmt.Errorf("persist: syncing frame of %d records: %w", len(rs), err)
		}
		l.fsyncs.Add(1)
	}
	l.segMu.Lock()
	l.activeSize += int64(frame.Len())
	l.segMu.Unlock()
	l.offset.Add(uint64(len(rs)))
	l.appendedFrames.Add(1)
	if l.activeSize >= l.segMax {
		// The frame is already durable, so a failed rotation must not
		// turn the ack into an error: keep the oversized segment active
		// and let the next append retry the rotation.
		_ = l.createSegmentLocked(l.offset.Load())
	}
	return nil
}

// rollbackLocked rolls the active segment back to the pre-append
// boundary after a failed write or sync. If the rollback truncate also
// fails, a frame of unknown durability is stuck past the accounted
// tail: it may be torn (partial write), and even a completely-written
// frame may silently never reach disk (a failed fsync can drop the
// dirty pages while every later fsync succeeds), so appending past it
// would park acknowledged frames behind a possible hole for the next
// recovery to truncate away — or, via rotation, seal a segment whose
// scanned record count contradicts the next segment's offset name. The
// log wedges instead: every later append and compaction fails loudly
// until a reopen rescans the bytes that actually survived, losing only
// unacknowledged data.
func (l *Log) rollbackLocked() {
	l.rollbacks.Add(1)
	if terr := l.active.Truncate(l.activeSize); terr != nil {
		l.wedged = true
		l.wedges.Add(1)
	}
}

// Replay streams every batch whose records lie past the `from` record
// offset, in append order. It fails if `from` falls inside a batch:
// snapshots cut at batch boundaries, so a split batch means the
// manifest and the log disagree.
func (l *Log) Replay(from uint64, fn func(rs []dataset.Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := append(append([]walSegment(nil), l.old...), walSegment{name: l.activeName, start: l.activeStart})
	for i, seg := range segs {
		end := l.offset.Load()
		if i+1 < len(segs) {
			end = segs[i+1].start
		}
		if end <= from {
			continue
		}
		if err := l.replaySegment(seg, from, fn); err != nil {
			return fmt.Errorf("persist: segment %s: %w", seg.name, err)
		}
	}
	return nil
}

func (l *Log) replaySegment(seg walSegment, from uint64, fn func(rs []dataset.Record) error) error {
	f, err := l.fs.OpenFile(filepath.Join(l.dir, seg.name), os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	cum := seg.start
	_, err = readFrames(f, func(count uint32, payload []byte) error {
		frameEnd := cum + uint64(count)
		if frameEnd <= from {
			cum = frameEnd
			return nil
		}
		if cum < from {
			return fmt.Errorf("offset %d splits a batch spanning [%d,%d) (manifest/log mismatch)", from, cum, frameEnd)
		}
		rs, err := decodeFrame(count, payload)
		if err != nil {
			return fmt.Errorf("decoding batch at offset %d: %w", cum, err)
		}
		if err := fn(rs); err != nil {
			return err
		}
		cum = frameEnd
		return nil
	})
	if errors.Is(err, errTorn) {
		// Open already truncated every torn tail, so a tear here can only
		// be bytes past the accounted end; EOF semantics apply.
		return nil
	}
	return err
}

// Compact seals the active segment if it holds records covered by
// `through`, then deletes sealed segments whose every record is covered.
// The snapshot path calls this with the manifest's WAL offset.
func (l *Log) Compact(through uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if l.wedged {
		// Sealing a wedged active segment would bury its torn frame in
		// a sealed segment, which recovery treats as hard corruption.
		return errWedged
	}
	if l.activeStart < through && l.activeSize > int64(len(segMagic)) {
		if err := l.createSegmentLocked(l.offset.Load()); err != nil {
			return err
		}
	}
	// Removal commits per segment (and tolerates an already-missing
	// file), so one failed unlink never leaves deleted segments
	// tracked — that would poison every later Compact with ENOENT.
	var kept []walSegment
	var firstErr error
	removed := false
	for i, seg := range l.old {
		end := l.activeStart
		if i+1 < len(l.old) {
			end = l.old[i+1].start
		}
		if end > through {
			kept = append(kept, seg)
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, seg.name)); err != nil && !os.IsNotExist(err) {
			if firstErr == nil {
				firstErr = fmt.Errorf("persist: removing compacted segment: %w", err)
			}
			kept = append(kept, seg)
			continue
		}
		removed = true
	}
	l.segMu.Lock()
	l.old = kept
	l.segMu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if removed && !l.noSync {
		return l.fs.SyncDir(l.dir)
	}
	return nil
}

// Offset reports how many records have been appended over the log's
// lifetime (surviving compaction, which only drops covered segments).
// Lock-free: never waits on an append's l.mu.
func (l *Log) Offset() uint64 { return l.offset.Load() }

// TornTail reports whether opening the log found (and truncated) a torn
// final frame — evidence of a crash mid-append.
func (l *Log) TornTail() bool { return l.torn }

// Scavenged reports the leftover segment files (abandoned by a failed
// rotation) that open removed, in offset order. Set once at open, then
// only read.
func (l *Log) Scavenged() []string { return append([]string(nil), l.scavenged...) }

// Segments reports how many segment files the log currently holds.
// Takes only segMu, never l.mu.
func (l *Log) Segments() int {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	return len(l.old) + 1
}

// Stats reports the write path's work counters. Lock-free: each field
// is an atomic load, so Stats returns immediately even mid-fsync. The
// fields are read individually, not as one snapshot, which is fine for
// monotone counters read for monitoring.
func (l *Log) Stats() WALStats {
	return WALStats{
		AppendedFrames: l.appendedFrames.Load(),
		Fsyncs:         l.fsyncs.Load(),
		Rollbacks:      l.rollbacks.Load(),
		Wedges:         l.wedges.Load(),
	}
}

// SizeBytes reports the log's current on-disk size from tracked
// segment sizes — no filesystem syscalls and no l.mu, so health checks
// and metric scrapes never stall behind appenders or their fsyncs.
func (l *Log) SizeBytes() int64 {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	total := l.activeSize
	for _, seg := range l.old {
		total += seg.size
	}
	return total
}

// SizePast reports the on-disk bytes of segments holding records past
// the given offset — the bytes a recovery from that offset would read.
// Granularity is whole segments (a boundary segment counts fully,
// matching what replay actually reads), so the snapshot growth trigger
// measures exactly the replay work it exists to bound. Takes only
// segMu, never l.mu.
func (l *Log) SizePast(offset uint64) int64 {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	var total int64
	for i, seg := range l.old {
		end := l.activeStart
		if i+1 < len(l.old) {
			end = l.old[i+1].start
		}
		if end > offset {
			total += seg.size
		}
	}
	if l.offset.Load() > offset {
		total += l.activeSize
	}
	return total
}

// Close syncs and closes the active segment. An append already holding
// l.mu finishes first and is acknowledged durably; later appends fail
// with errLogClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	f := l.active
	l.mu.Unlock()
	// The final sync runs outside every lock: each other file user
	// holds l.mu for its whole operation and checks closed first, so
	// once closed is set under the mutex nothing else can touch f.
	if !l.noSync {
		if err := f.Sync(); err != nil {
			return errors.Join(fmt.Errorf("persist: syncing on close: %w", err), f.Close())
		}
	}
	return f.Close()
}
