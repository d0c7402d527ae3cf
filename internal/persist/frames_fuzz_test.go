package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzReadFrames: whatever bytes follow the segment magic, the frame
// reader returns a clean prefix of whole, checksummed frames and either
// nil (the prefix is everything) or errTorn — never another error or a
// panic — and allocates no more than the input's length plus the
// constant TestHostileFrameLengthAllocatesOnlyWhatArrives allows, so a
// hostile length header costs nothing until its bytes arrive. Payloads
// that pass the checksum also go through decodeFrame, which may refuse
// them but must not panic.
func FuzzReadFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, tail []byte) {
		data := append([]byte(segMagic), tail...)
		type frame struct {
			count   uint32
			payload []byte
		}
		var frames []frame
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		goodEnd, err := readFrames(bytes.NewReader(data), func(count uint32, payload []byte) error {
			frames = append(frames, frame{count, bytes.Clone(payload)})
			return nil
		})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(len(data))+4<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil && !errors.Is(err, errTorn) {
			t.Fatalf("readFrames: %v, want nil or errTorn", err)
		}
		if err == nil && goodEnd != int64(len(data)) {
			t.Fatalf("clean read ended at %d of %d bytes", goodEnd, len(data))
		}
		// The frames handed out tile data[len(segMagic):goodEnd]
		// exactly, each with a header that describes it.
		off := int64(len(segMagic))
		for i, fr := range frames {
			hdr := data[off : off+frameHdrSize]
			length := binary.LittleEndian.Uint32(hdr[0:4])
			if int(length) != len(fr.payload) || binary.LittleEndian.Uint32(hdr[4:8]) != fr.count ||
				binary.LittleEndian.Uint32(hdr[8:12]) != crc32.Checksum(fr.payload, crcTable) {
				t.Fatalf("frame %d at offset %d does not match its header", i, off)
			}
			off += frameHdrSize
			if !bytes.Equal(data[off:off+int64(length)], fr.payload) {
				t.Fatalf("frame %d payload is not the bytes at offset %d", i, off)
			}
			off += int64(length)
			decodeFrame(fr.count, fr.payload)
		}
		if off != goodEnd {
			t.Fatalf("frames cover %d bytes, goodEnd is %d", off, goodEnd)
		}
	})
}
