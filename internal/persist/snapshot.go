package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"iqb/internal/dataset"
)

// manifestName is the file naming the current snapshot; it is replaced
// atomically (see publishFile), so there is always either no manifest
// or a complete one.
const (
	manifestName = "MANIFEST.json"
	snapPrefix   = "snap-"
	tmpSuffix    = ".tmp"
	// snapFrameRecords is how many records each snapshot frame holds:
	// frames stay far below maxFrameBytes, and load decodes one frame's
	// batch at a time.
	snapFrameRecords = 4096
)

// manifest describes the current snapshot: which file holds it and the
// WAL record offset it covers. Recovery loads the snapshot and replays
// only WAL frames past WALOffset. The snapshot's frames carry their own
// checksums, so the manifest holds none.
type manifest struct {
	Version   int       `json:"version"`
	Snapshot  string    `json:"snapshot"`
	Records   int       `json:"records"`
	WALOffset uint64    `json:"wal_offset"`
	SavedAt   time.Time `json:"saved_at"`
}

// manifestVersion 2 names a WAL-framed snapshot. Version 1 (an NDJSON
// body with a whole-file checksum) is refused; such a dir is rebuilt.
const manifestVersion = 2

// SnapshotInfo reports one completed snapshot.
type SnapshotInfo struct {
	Path      string    `json:"path"`
	Records   int       `json:"records"`
	WALOffset uint64    `json:"wal_offset"`
	Bytes     int64     `json:"bytes"`
	SavedAt   time.Time `json:"saved_at"`
}

// publishFile atomically replaces dir/name with what write produces:
// the bytes go to a temp file that is fsynced, closed and renamed over
// name, and then dir is synced so the rename is durable. A crash at any
// step leaves the old file or the new one, never a mix, and every
// failure removes the temp file.
func publishFile(dir, name string, write func(io.Writer) error) (err error) {
	path := filepath.Join(dir, name)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating %s: %w", filepath.Base(tmp), err)
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return errors.Join(fmt.Errorf("persist: writing %s: %w", name, err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("persist: syncing %s: %w", name, err), f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: closing %s: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: publishing %s: %w", name, err)
	}
	return syncDir(dir)
}

// publishJSON publishes v, indented, as dir/name.
func publishJSON(dir, name string, v any) error {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: encoding %s: %w", name, err)
	}
	return publishFile(dir, name, func(w io.Writer) error {
		_, err := w.Write(append(body, '\n'))
		return err
	})
}

// writeSnapshot persists the record set as the current snapshot
// covering walOffset: the framed body is published first, and only then
// does the manifest flip to it. A crash anywhere in the sequence leaves
// the previous snapshot intact and loadable.
func writeSnapshot(dir string, rs []dataset.Record, walOffset uint64, now time.Time) (SnapshotInfo, error) {
	name := fmt.Sprintf("%s%020d%s", snapPrefix, walOffset, segSuffix)
	records, size := len(rs), int64(len(segMagic))
	err := publishFile(dir, name, func(w io.Writer) error {
		if _, err := io.WriteString(w, segMagic); err != nil {
			return err
		}
		var frame bytes.Buffer
		for len(rs) > 0 {
			n := min(len(rs), snapFrameRecords)
			frame.Reset()
			if err := encodeFrame(&frame, rs[:n]); err != nil {
				return err
			}
			if _, err := w.Write(frame.Bytes()); err != nil {
				return err
			}
			size += int64(frame.Len())
			rs = rs[n:]
		}
		return nil
	})
	if err != nil {
		return SnapshotInfo{}, err
	}
	m := manifest{
		Version:   manifestVersion,
		Snapshot:  name,
		Records:   records,
		WALOffset: walOffset,
		SavedAt:   now.UTC(),
	}
	if err := publishJSON(dir, manifestName, m); err != nil {
		return SnapshotInfo{}, err
	}
	removeStaleSnapshots(dir, name)
	return SnapshotInfo{Path: filepath.Join(dir, name), Records: m.Records, WALOffset: walOffset, Bytes: size, SavedAt: m.SavedAt}, nil
}

// removeStaleSnapshots deletes snapshot bodies (and orphaned temp
// files) other than the one the manifest now names. Best-effort: a
// leftover file wastes space but breaks nothing.
func removeStaleSnapshots(dir, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == keep {
			continue
		}
		stale := strings.HasSuffix(name, tmpSuffix) ||
			(strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, segSuffix))
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// loadSnapshot streams the manifest's snapshot into store, one frame's
// batch at a time. ok is false when no manifest exists (a fresh or
// WAL-only data dir). The body was fsynced before the manifest named
// it, so a torn or checksum-broken frame is corruption, not a crash
// tail; on any error the caller must discard the partly loaded store.
func loadSnapshot(dir string, store *dataset.Store) (m manifest, ok bool, err error) {
	body, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("persist: reading manifest: %w", err)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return manifest{}, false, fmt.Errorf("persist: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, false, fmt.Errorf("persist: manifest version %d not supported (want %d)", m.Version, manifestVersion)
	}
	f, err := os.Open(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return manifest{}, false, fmt.Errorf("persist: opening snapshot %s: %w", m.Snapshot, err)
	}
	defer f.Close()
	records := 0
	_, err = readFrames(f, func(count uint32, payload []byte) error {
		rs, err := decodeFrame(count, payload)
		if err != nil {
			return fmt.Errorf("decoding frame after record %d: %w", records, err)
		}
		if err := store.AddBatch(rs); err != nil {
			return err
		}
		records += len(rs)
		return nil
	})
	if errors.Is(err, errTorn) {
		return manifest{}, false, fmt.Errorf("persist: snapshot %s: torn or checksum-broken frame after record %d (corruption)", m.Snapshot, records)
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("persist: loading snapshot %s: %w", m.Snapshot, err)
	}
	if records != m.Records {
		return manifest{}, false, fmt.Errorf("persist: snapshot %s holds %d records, manifest says %d", m.Snapshot, records, m.Records)
	}
	return m, true, nil
}
