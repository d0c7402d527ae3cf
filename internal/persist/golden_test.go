package persist

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iqb/internal/dataset"
)

// updateGolden rewrites testdata/golden. The committed files were
// written by the encoding/json record encoder the hand-written codec
// replaced; regenerate them only when the on-disk format changes on
// purpose, since TestGoldenDataDir pins the codec to those bytes.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from goldenBatches")

const goldenDir = "testdata/golden"

// goldenWALOffset is the record offset the golden snapshot covers; the
// golden WAL segment starts there.
const goldenWALOffset = 5

// goldenBatches returns the golden data dir's batches in recovery
// order: two snapshot frames, then two WAL frames. Between them the
// records exercise every rule of the record encoder: omitted metrics,
// ASN and tech present and absent, HTML-escaped and line-separator
// characters in strings, a non-UTC zone offset, negative zero,
// sub-second times, and floats on both sides of the exponent cutovers.
func goldenBatches() [][]dataset.Record {
	utc := func(sec, nsec int) time.Time {
		return time.Date(2025, 6, 2, 0, 0, sec, nsec, time.UTC)
	}
	rec := func(id, ds, region string, t time.Time, asn uint32, tech string, down, up, lat, loss float64) dataset.Record {
		r := dataset.NewRecord(id, ds, region, t)
		r.ASN, r.Tech = asn, tech
		r.DownloadMbps, r.UploadMbps, r.LatencyMS, r.LossFrac = down, up, lat, loss
		return r
	}
	nan := math.NaN()
	ist := time.FixedZone("", 5*3600+30*60)
	return [][]dataset.Record{
		{
			rec("plain", "ndt", "XA-01-001", utc(0, 0), 0, "", 120, 30, 18, 0.001),
			rec("<a&b>", "cloudflare", "XA-01", utc(1, 500000000), 64512, "fiber", 1e21, nan, nan, nan),
			rec("sep\u2028par\u2029", "ookla", "XA", utc(2, 123456789), 0, "cable", nan, nan, nan, 1e-7),
		},
		{
			rec("ist", "ndt", "XB-07-013", time.Date(2025, 6, 2, 5, 30, 0, 1000, ist), 4294967295, "", nan, 5.5, nan, nan),
			rec("±π-small", "ndt", "XB-07", utc(3, 0), 7, "dsl & <wifi>", 1e-6, 9.999999e20, 1e-7, 0),
		},
		{
			rec("wal-1", "cloudflare", "XA-01-002", utc(4, 0), 0, "", math.Copysign(0, -1), nan, 0.5, nan),
			rec("wal-2", "ndt", "XA-01-002", utc(5, 999999999), 13335, "fixed wireless", 123456789.125, 1e-9, 2.5e-7, 1),
		},
		{
			rec("wal-3", "ookla", "XB", utc(6, 0), 0, "5G", 3.3333333333333335, nan, 1e20, nan),
		},
	}
}

// writeGoldenDir lays out a data dir by hand: a two-frame snapshot
// named by a version-2 manifest, and one WAL segment starting at the
// snapshot's covered offset.
func writeGoldenDir(t *testing.T, dir string, batches [][]dataset.Record) {
	t.Helper()
	writeFramed := func(path string, bs [][]dataset.Record) {
		var buf bytes.Buffer
		buf.WriteString(segMagic)
		for _, b := range bs {
			if err := encodeFrame(&buf, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, walSubdir), 0o755); err != nil {
		t.Fatal(err)
	}
	snap := snapPrefix + "00000000000000000005" + segSuffix
	writeFramed(filepath.Join(dir, snap), batches[:2])
	writeFramed(filepath.Join(dir, walSubdir, segName(goldenWALOffset)), batches[2:])
	m := manifest{Version: manifestVersion, Snapshot: snap, Records: goldenWALOffset,
		WALOffset: goldenWALOffset, SavedAt: time.Date(2025, 6, 3, 0, 0, 0, 0, time.UTC)}
	if err := publishJSON(dir, manifestName, m); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the golden data dir into dst, so opening it never
// touches the committed files.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), body, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goldenEqual compares records field by field: floats bit for bit (so
// -0 and NaN-as-missing count), times by instant and zone offset.
func goldenEqual(a, b dataset.Record) bool {
	if a.ID != b.ID || a.Dataset != b.Dataset || a.Region != b.Region ||
		a.ASN != b.ASN || a.Tech != b.Tech || !a.Time.Equal(b.Time) {
		return false
	}
	_, ao := a.Time.Zone()
	_, bo := b.Time.Zone()
	if ao != bo {
		return false
	}
	for _, m := range dataset.AllMetrics() {
		av, aok := a.Value(m)
		bv, bok := b.Value(m)
		if aok != bok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	return true
}

// TestGoldenDataDir pins the on-disk format: a data dir written by an
// earlier build recovers to the expected records, and encoding those
// records today reproduces every stored frame byte for byte.
func TestGoldenDataDir(t *testing.T) {
	batches := goldenBatches()
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		writeGoldenDir(t, goldenDir, batches)
	}

	dir := t.TempDir()
	copyDir(t, goldenDir, dir)
	m, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open golden dir: %v", err)
	}
	defer m.Close()
	if rec := m.Recovery(); !rec.FromSnapshot || rec.SnapshotRecords != goldenWALOffset || rec.WALBatches != 2 || rec.TornTail {
		t.Fatalf("recovery = %+v, want snapshot of %d records and 2 clean WAL batches", rec, goldenWALOffset)
	}
	var want []dataset.Record
	for _, b := range batches {
		want = append(want, b...)
	}
	got := m.Store().Select(dataset.Filter{})
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !goldenEqual(got[i], want[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// Every stored frame, header included, is what encodeFrame writes
	// for the batch it decodes to.
	files := []string{
		filepath.Join(goldenDir, snapPrefix+"00000000000000000005"+segSuffix),
		filepath.Join(goldenDir, walSubdir, segName(goldenWALOffset)),
	}
	frames := 0
	for _, path := range files {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := int64(len(segMagic))
		end, err := readFrames(bytes.NewReader(body), func(count uint32, payload []byte) error {
			stored := body[off : off+frameHdrSize+int64(len(payload))]
			off += int64(len(stored))
			rs, err := decodeFrame(count, payload)
			if err != nil {
				return err
			}
			if frames >= len(batches) {
				return fmt.Errorf("more than %d frames", len(batches))
			}
			if !goldenEqual(rs[0], batches[frames][0]) {
				t.Errorf("%s frame %d decodes out of order", path, frames)
			}
			var buf bytes.Buffer
			if err := encodeFrame(&buf, rs); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), stored) {
				t.Errorf("%s frame %d re-encodes differently:\n got %q\nwant %q", path, frames, buf.Bytes(), stored)
			}
			frames++
			return nil
		})
		if err != nil || end != int64(len(body)) {
			t.Fatalf("%s: read frames to %d of %d bytes: %v", path, end, len(body), err)
		}
	}
	if frames != len(batches) {
		t.Fatalf("read %d frames, want %d", frames, len(batches))
	}
}
