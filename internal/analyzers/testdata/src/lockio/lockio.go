// Package lockio is the executable specification of the lockio rule.
package lockio

import (
	"net"
	"os"
	"sync"
	"time"
)

type store struct {
	mu sync.Mutex
	f  *os.File
}

// segFile mirrors persist's WALFile seam: an interface whose Sync is
// an fsync.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
}

func badWriteAndSyncUnderLock(s *store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write([]byte("x")); err != nil { // want `os.File.Write while s.mu \(Lock\) is held`
		return err
	}
	return s.f.Sync() // want `os.File.Sync while s.mu \(Lock\) is held`
}

func badInterfaceSyncUnderRLock(mu *sync.RWMutex, f segFile) error {
	mu.RLock()
	defer mu.RUnlock()
	return f.Sync() // want `interface method Sync while mu \(RLock\) is held`
}

func badSleepUnderLock(mu *sync.Mutex) {
	mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while mu \(Lock\) is held`
	mu.Unlock()
}

func badDialUnderLock(s *store) (net.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return net.Dial("tcp", "localhost:1") // want `net.Dial while s.mu \(Lock\) is held`
}

func badRenameUnderLock(s *store, from, to string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.Rename(from, to) // want `os.Rename while s.mu \(Lock\) is held`
}

// goodIOAfterUnlock releases the lock before touching the disk — the
// shape of the WAL's final sync on Close.
func goodIOAfterUnlock(s *store) error {
	s.mu.Lock()
	name := s.f.Name()
	s.mu.Unlock()
	_ = name
	return s.f.Sync()
}

// goodBranchRelease unlocks on the early-return path and again on the
// fallthrough before the I/O.
func goodBranchRelease(s *store, fast bool) error {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	return s.f.Sync()
}

// goodGoroutine does not inherit the spawner's critical section.
func goodGoroutine(s *store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_ = s.f.Sync()
	}()
}

func suppressedSerializedFile(s *store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//iqbvet:ignore lockio this lock exists to serialize the segment file itself
	return s.f.Sync()
}
