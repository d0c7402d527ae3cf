package persist

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// This file is the fault-injection layer behind persist's crash tests:
// a WALFS that wraps the real filesystem and injects the failures a
// disk and a dying process actually produce — short writes, fsync
// errors, failed rollback truncates, and a kill-point after which every
// operation fails (the in-process stand-in for SIGKILL). It also counts
// file syncs, which is how the group-commit tests prove that N acked
// batches cost fewer than N fsyncs, and can slow or park them, which is
// how those tests fold groups without a timing window.

// Sentinel fault errors. Production code never sees these types; tests
// match them with errors.Is through the persist error wrapping.
var (
	errKilled        = errors.New("faultfs: killed")
	errSyncInjected  = errors.New("faultfs: injected sync failure")
	errTruncInject   = errors.New("faultfs: injected truncate failure")
	errDirSyncInject = errors.New("faultfs: injected dir-sync failure")
	errRemoveInject  = errors.New("faultfs: injected remove failure")
)

// faultFS implements WALFS over the real filesystem with an injectable
// fault plan. All fields are guarded by mu; the same faultFS is shared
// by every file it opens, so a kill-point covers the whole log at once.
type faultFS struct {
	mu sync.Mutex

	// Counters.
	fileSyncs int   // file Sync attempts (successful or injected-fail)
	dirSyncs  int   // directory syncs
	wrote     int64 // bytes successfully written through the layer

	// Fault plan.
	killAt       int64 // kill once wrote reaches this many bytes; <0 disarmed
	killed       bool
	failSyncs    int     // fail the next N file Syncs (transient)
	syncErrs     []error // the distinct injected sync-error instances, in order
	failTruncate bool    // fail Truncate calls while set (breaks rollback)
	failDirSyncs int     // fail the next N directory syncs (fails a rotation)
	failRemove   bool    // fail Remove calls while set (leaves leftovers)
	syncLatency  time.Duration
	gate         *syncGate // parks the next file Sync until released
}

// syncGate holds one file Sync: parked closes once the Sync is waiting,
// and the Sync goes on (through the rest of the fault plan) once the
// test closes release.
type syncGate struct {
	parked, release chan struct{}
}

func newFaultFS() *faultFS {
	return &faultFS{killAt: -1}
}

// killAfterBytes arms the kill-point: the write that would carry the
// cumulative byte count past the threshold lands only its prefix up to
// it (a torn frame), and every operation after that fails with
// errKilled — the filesystem view of a process that died mid-append.
func (f *faultFS) killAfterBytes(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killAt = f.wrote + n
}

// failNextSyncs makes the next n file Sync calls fail, each with a
// distinct error instance (so tests can count how many sync attempts a
// set of waiter errors traces back to).
func (f *faultFS) failNextSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs = n
}

// parkNextSync arms a gate on the next file Sync. While that Sync is
// parked the committer holds its group open, so appends made meanwhile
// queue up and fold into the next group — deterministically.
func (f *faultFS) parkNextSync() *syncGate {
	g := &syncGate{parked: make(chan struct{}), release: make(chan struct{})}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gate = g
	return g
}

// setSyncLatency makes every file Sync take at least d, like a disk
// whose flushes are slow enough for concurrent writers to pile up.
func (f *faultFS) setSyncLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncLatency = d
}

// setFailTruncate toggles Truncate failures, which turn an append error
// into an unrollbackable one.
func (f *faultFS) setFailTruncate(fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failTruncate = fail
}

// failNextDirSyncs makes the next n directory syncs fail — the fault
// that aborts a segment rotation after its magic is already on disk.
func (f *faultFS) failNextDirSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failDirSyncs = n
}

// setFailRemove toggles Remove failures, which turn an abandoned
// rotation into a leftover segment file on disk.
func (f *faultFS) setFailRemove(fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRemove = fail
}

// clearFaults disarms every pending fault (but not a kill already
// triggered, which is permanent by design).
func (f *faultFS) clearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killAt = -1
	f.failSyncs = 0
	f.failTruncate = false
	f.failDirSyncs = 0
	f.failRemove = false
}

func (f *faultFS) fileSyncCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fileSyncs
}

func (f *faultFS) syncErrors() []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]error(nil), f.syncErrs...)
}

func (f *faultFS) isKilled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (WALFile, error) {
	f.mu.Lock()
	killed := f.killed
	f.mu.Unlock()
	if killed {
		return nil, errKilled
	}
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *faultFS) Remove(name string) error {
	f.mu.Lock()
	killed, failRemove := f.killed, f.failRemove
	f.mu.Unlock()
	if killed {
		return errKilled
	}
	if failRemove {
		return errRemoveInject
	}
	return os.Remove(name)
}

func (f *faultFS) SyncDir(dir string) error {
	f.mu.Lock()
	if f.killed {
		f.mu.Unlock()
		return errKilled
	}
	f.dirSyncs++
	if f.failDirSyncs > 0 {
		f.failDirSyncs--
		f.mu.Unlock()
		return errDirSyncInject
	}
	f.mu.Unlock()
	return syncDir(dir)
}

// faultFile routes one file's operations through the shared fault plan.
type faultFile struct {
	fs *faultFS
	f  *os.File
}

func (w *faultFile) Read(p []byte) (int, error) {
	w.fs.mu.Lock()
	killed := w.fs.killed
	w.fs.mu.Unlock()
	if killed {
		return 0, errKilled
	}
	return w.f.Read(p)
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.killed {
		return 0, errKilled
	}
	if w.fs.killAt >= 0 && w.fs.wrote+int64(len(p)) > w.fs.killAt {
		// The kill lands inside this write: the file keeps only the
		// prefix up to the kill-point — a torn frame — and the
		// process is dead from here on.
		n := int(w.fs.killAt - w.fs.wrote)
		if n < 0 {
			n = 0
		}
		if n > 0 {
			n, _ = w.f.Write(p[:n])
		}
		w.fs.wrote += int64(n)
		w.fs.killed = true
		return n, errKilled
	}
	n, err := w.f.Write(p)
	w.fs.wrote += int64(n)
	return n, err
}

func (w *faultFile) WriteAt(p []byte, off int64) (int, error) {
	w.fs.mu.Lock()
	killed := w.fs.killed
	w.fs.mu.Unlock()
	if killed {
		return 0, errKilled
	}
	return w.f.WriteAt(p, off)
}

func (w *faultFile) Truncate(size int64) error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.killed {
		return errKilled
	}
	if w.fs.failTruncate {
		return errTruncInject
	}
	return w.f.Truncate(size)
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	gate, latency := w.fs.gate, w.fs.syncLatency
	w.fs.gate = nil
	w.fs.mu.Unlock()
	if gate != nil {
		close(gate.parked)
		<-gate.release
	}
	time.Sleep(latency)
	w.fs.mu.Lock()
	if w.fs.killed {
		w.fs.mu.Unlock()
		return errKilled
	}
	w.fs.fileSyncs++
	if w.fs.failSyncs > 0 {
		w.fs.failSyncs--
		err := fmt.Errorf("%w #%d", errSyncInjected, len(w.fs.syncErrs))
		w.fs.syncErrs = append(w.fs.syncErrs, err)
		w.fs.mu.Unlock()
		return err
	}
	w.fs.mu.Unlock()
	return w.f.Sync()
}

func (w *faultFile) Close() error {
	// Close stays allowed after a kill: the test harness tears the
	// dead log down with Log.Close, and leaking the descriptor would
	// trip the race detector's file-handle accounting across the many
	// property-test iterations.
	return w.f.Close()
}
