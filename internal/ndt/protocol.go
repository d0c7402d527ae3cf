// Package ndt implements an NDT7-style single-stream measurement system:
// a TCP server and client exchanging length-prefixed frames (bulk data
// interleaved with JSON measurement messages), with transfer pacing
// governed by a netem path so the client measures emulated last-mile
// conditions rather than the loopback interface.
//
// It substitutes for the M-Lab NDT dataset in the IQB framework (see
// README.md and PAPER.md): the record schema and the
// single-saturating-stream methodology match NDT; only the wire
// underneath is emulated. A fast Simulate path produces statistically
// equivalent results without sockets for bulk dataset generation.
package ndt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Frame types on the wire.
const (
	frameData        = 0x00
	frameMeasurement = 0x01
	frameRequest     = 0x02
	frameResult      = 0x03
)

// maxFrame bounds frame payloads to keep a malicious peer from forcing
// huge allocations.
const maxFrame = 1 << 20

// TestDuration is the standard NDT transfer duration.
const TestDuration = 10 * time.Second

// measureInterval is how often the server emits measurement frames.
const measureInterval = 250 * time.Millisecond

// Request opens a test.
type Request struct {
	// Test is "download" or "upload".
	Test string `json:"test"`
	// DurationMS overrides the standard 10s duration (for tests).
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// Measurement is the periodic counter snapshot, mirroring the TCPInfo
// fields NDT7 reports.
type Measurement struct {
	ElapsedMS    int64   `json:"elapsed_ms"`
	Bytes        int64   `json:"bytes"`
	RTTms        float64 `json:"rtt_ms"`
	MinRTTms     float64 `json:"min_rtt_ms"`
	Retransmits  int64   `json:"retransmits"`
	SegmentsSent int64   `json:"segments_sent"`
}

// Result is the server's final verdict for one direction.
type Result struct {
	Test         string  `json:"test"`
	Mbps         float64 `json:"mbps"`
	MinRTTms     float64 `json:"min_rtt_ms"`
	LossRate     float64 `json:"loss_rate"`
	Bytes        int64   `json:"bytes"`
	DurationMS   int64   `json:"duration_ms"`
	Measurements int     `json:"measurements"`
}

// writeFrame writes a typed frame: 1 type byte + 4-byte big-endian
// length + payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("ndt: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ndt: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("ndt: writing frame payload: %w", err)
	}
	return nil
}

// readFrame reads one frame, reusing buf when it is large enough.
func readFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // propagate EOF untranslated for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("ndt: peer announced %d byte frame (limit %d)", n, maxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("ndt: reading frame payload: %w", err)
	}
	return hdr[0], buf, nil
}

// writeJSONFrame marshals v into a frame of the given type.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ndt: marshaling frame: %w", err)
	}
	return writeFrame(w, typ, payload)
}
