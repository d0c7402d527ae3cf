package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"time"
	"unicode/utf8"
)

// The NDJSON record codec. One line holds one record as a JSON object
// in the jsonRecord wire form. WriteNDJSON appends that form by hand,
// byte for byte what json.Encoder writes for jsonRecord (field order,
// omitempty, float formatting and string escaping), so WAL frames and
// snapshots written before the hand-written encoder stay readable and
// re-encode identically.
//
// The decoder parses the canonical form directly into a Record:
//
//   - one object, no whitespace anywhere, no null;
//   - keys exactly jsonRecord's, each at most once, in any order;
//   - strings without backslash escapes or control bytes, valid UTF-8;
//   - numbers in JSON number syntax, read by strconv the way
//     encoding/json reads them, and the time by time.Time.UnmarshalJSON.
//
// Everything the encoder writes is canonical unless a string needed an
// escape. Any other line falls back to json.Unmarshal into jsonRecord,
// so the records accepted and the errors reported are the same as
// encoding/json's for every input; the fallback is the only parser for
// such lines, not an alternative selectable by the caller.

// jsonRecord is the wire form of a Record: metric fields are pointers so
// missing values round-trip as absent keys rather than NaN (which JSON
// cannot represent). The fallback decoder unmarshals into it; the
// hand-written codec follows its field order and tags.
type jsonRecord struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Dataset  string    `json:"dataset"`
	Region   string    `json:"region"`
	ASN      uint32    `json:"asn,omitempty"`
	Tech     string    `json:"tech,omitempty"`
	Download *float64  `json:"download_mbps,omitempty"`
	Upload   *float64  `json:"upload_mbps,omitempty"`
	Latency  *float64  `json:"latency_ms,omitempty"`
	Loss     *float64  `json:"loss_frac,omitempty"`
}

func fromWire(w jsonRecord) Record {
	r := NewRecord(w.ID, w.Dataset, w.Region, w.Time)
	r.ASN = w.ASN
	r.Tech = w.Tech
	if w.Download != nil {
		r.DownloadMbps = *w.Download
	}
	if w.Upload != nil {
		r.UploadMbps = *w.Upload
	}
	if w.Latency != nil {
		r.LatencyMS = *w.Latency
	}
	if w.Loss != nil {
		r.LossFrac = *w.Loss
	}
	return r
}

// WriteNDJSON writes records to w as newline-delimited JSON. A
// *bytes.Buffer (a WAL frame, an ingest request body) gets each line
// appended in place; any other writer gets the lines in chunks of
// about ndjsonWriteChunk bytes.
func WriteNDJSON(w io.Writer, rs []Record) error {
	buf, direct := w.(*bytes.Buffer)
	if !direct {
		buf = new(bytes.Buffer)
	}
	for i, r := range rs {
		// Room for the whole line unless a string needs escapes, so
		// appending into the spare capacity rarely reallocates.
		buf.Grow(256 + len(r.ID) + len(r.Dataset) + len(r.Region) + len(r.Tech))
		line, err := appendRecord(buf.AvailableBuffer(), r)
		if err != nil {
			return fmt.Errorf("dataset: encoding record %d: %w", i, err)
		}
		buf.Write(line)
		if !direct && buf.Len() >= ndjsonWriteChunk {
			if _, err := buf.WriteTo(w); err != nil {
				return err
			}
		}
	}
	if !direct && buf.Len() > 0 {
		_, err := buf.WriteTo(w)
		return err
	}
	return nil
}

const ndjsonWriteChunk = 64 << 10

var timeType = reflect.TypeOf(time.Time{})

// appendRecord appends r's wire line, newline included, as
// json.Encoder would write jsonRecord: the time by time.Time.MarshalJSON,
// zero ASN, empty tech and NaN metrics left out. Its errors are the
// ones encoding/json returns: a *json.MarshalerError for a time
// MarshalJSON refuses, a *json.UnsupportedValueError for ±Inf.
func appendRecord(b []byte, r Record) ([]byte, error) {
	ts, err := r.Time.MarshalJSON()
	if err != nil {
		return b, &json.MarshalerError{Type: timeType, Err: err}
	}
	b = append(b, `{"id":`...)
	b = appendJSONString(b, r.ID)
	b = append(b, `,"time":`...)
	b = append(b, ts...)
	b = append(b, `,"dataset":`...)
	b = appendJSONString(b, r.Dataset)
	b = append(b, `,"region":`...)
	b = appendJSONString(b, r.Region)
	if r.ASN != 0 {
		b = append(b, `,"asn":`...)
		b = strconv.AppendUint(b, uint64(r.ASN), 10)
	}
	if r.Tech != "" {
		b = append(b, `,"tech":`...)
		b = appendJSONString(b, r.Tech)
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"download_mbps":`, r.DownloadMbps},
		{`,"upload_mbps":`, r.UploadMbps},
		{`,"latency_ms":`, r.LatencyMS},
		{`,"loss_frac":`, r.LossFrac},
	} {
		if math.IsNaN(f.v) {
			continue
		}
		if math.IsInf(f.v, 0) {
			return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f.v, 'g', -1, 64)}
		}
		b = append(b, f.key...)
		b = appendJSONFloat(b, f.v)
	}
	return append(b, '}', '\n'), nil
}

// appendJSONFloat formats a finite v as encoding/json does (ES6 number
// to string): shortest 'f' form, or 'e' form outside [1e-6, 1e21) with
// a single-digit negative exponent unpadded ("1e-7", not "1e-07").
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as json.Encoder does with its default HTML
// escaping: '"' and '\\' backslash-escaped, \b \f \n \r \t by name,
// other control bytes and '<', '>', '&' as \u00XX, U+2028 and U+2029
// as \u202X, and each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// LineError locates a malformed NDJSON record by its 1-based line
// number in the input stream — the number is global across an entire
// decode, not relative to the chunk that surfaced it, so streaming
// ingest clients can be pointed at the exact offending line of what
// they sent. Unwrap exposes the underlying parse or validation error.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("dataset: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// decodeLine parses and validates one NDJSON line; line is its 1-based
// number in the input. Trailing '\n' and '\r' bytes are trimmed, and ok
// is false for a line that is then blank. A malformed or invalid record
// is a *LineError.
func decodeLine(raw []byte, line int) (rec Record, ok bool, err error) {
	for len(raw) > 0 && (raw[len(raw)-1] == '\n' || raw[len(raw)-1] == '\r') {
		raw = raw[:len(raw)-1]
	}
	if len(raw) == 0 {
		return Record{}, false, nil
	}
	rec, canonical := parseCanonical(raw)
	if !canonical {
		var w jsonRecord
		if err := json.Unmarshal(raw, &w); err != nil {
			return Record{}, false, &LineError{Line: line, Err: err}
		}
		rec = fromWire(w)
	}
	if err := rec.Validate(); err != nil {
		return Record{}, false, &LineError{Line: line, Err: err}
	}
	return rec, true, nil
}

// Wire fields, as bits of parseCanonical's seen-set.
const (
	wireID = iota
	wireTime
	wireDataset
	wireRegion
	wireASN
	wireTech
	wireDownload
	wireUpload
	wireLatency
	wireLoss
)

func wireField(key []byte) int {
	switch string(key) {
	case "id":
		return wireID
	case "time":
		return wireTime
	case "dataset":
		return wireDataset
	case "region":
		return wireRegion
	case "asn":
		return wireASN
	case "tech":
		return wireTech
	case "download_mbps":
		return wireDownload
	case "upload_mbps":
		return wireUpload
	case "latency_ms":
		return wireLatency
	case "loss_frac":
		return wireLoss
	}
	return -1
}

// parseCanonical decodes a line in the canonical form described at the
// top of this file into the Record json.Unmarshal + fromWire would
// produce from it. ok is false for any line outside that form,
// including every line encoding/json would reject; the caller then
// falls back to encoding/json for the result or the error.
func parseCanonical(b []byte) (r Record, ok bool) {
	r = NewRecord("", "", "", time.Time{})
	n := len(b)
	// b ends in '}', which no string or number can end with, so every
	// literal that scans cleanly is followed by at least that byte.
	if n < 2 || b[0] != '{' || b[n-1] != '}' {
		return r, false
	}
	var seen uint16
	for i := 1; ; {
		key, end, ok := scanString(b, i)
		if !ok || b[end] != ':' {
			return r, false
		}
		f := wireField(key)
		if f < 0 || seen&(1<<f) != 0 {
			return r, false
		}
		seen |= 1 << f
		i = end + 1
		switch f {
		case wireID, wireDataset, wireRegion, wireTech:
			s, end, ok := scanString(b, i)
			if !ok {
				return r, false
			}
			switch f {
			case wireID:
				r.ID = string(s)
			case wireDataset:
				r.Dataset = string(s)
			case wireRegion:
				r.Region = string(s)
			default:
				r.Tech = string(s)
			}
			i = end
		case wireTime:
			_, end, ok := scanString(b, i)
			if !ok || r.Time.UnmarshalJSON(b[i:end]) != nil {
				return r, false
			}
			i = end
		case wireASN:
			num, end := scanNumber(b, i)
			// A nil num (not a JSON number) fails to parse too.
			v, err := strconv.ParseUint(string(num), 10, 32)
			if err != nil {
				return r, false
			}
			r.ASN = uint32(v)
			i = end
		default:
			num, end := scanNumber(b, i)
			v, err := strconv.ParseFloat(string(num), 64)
			if err != nil {
				return r, false
			}
			r.SetValue(Metric(f-wireDownload), v)
			i = end
		}
		switch b[i] {
		case '}':
			return r, i == n-1
		case ',':
			i++
		default:
			return r, false
		}
	}
}

// scanString reads the string literal opening at b[i]. It reports the
// bytes between the quotes and the index just past the closing one,
// and ok only for a literal without escapes or control bytes, holding
// valid UTF-8.
func scanString(b []byte, i int) (s []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s = b[i+1 : j]
			if !ascii && !utf8.Valid(s) {
				return nil, 0, false
			}
			return s, j + 1, true
		case c == '\\' || c < 0x20:
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// scanNumber reads the number opening at b[i], returning nil unless it
// matches the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and the index just
// past it.
func scanNumber(b []byte, i int) (num []byte, end int) {
	j := i
	digits := func() bool {
		k := j
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j > k
	}
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case !digits():
		return nil, i
	}
	if j < len(b) && b[j] == '.' {
		j++
		if !digits() {
			return nil, i
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if !digits() {
			return nil, i
		}
	}
	return b[i:j], j
}

// NDJSONDecoder incrementally decodes newline-delimited JSON records,
// validating each. Unlike ReadNDJSON it never holds more than one
// chunk of records in memory, so arbitrarily long request bodies can
// be fed through a bounded ingest queue chunk by chunk. Lines may be
// arbitrarily long: each is accumulated in full rather than capped the
// way bufio.Scanner caps tokens, so no record the writer produced is
// ever refused for its length.
type NDJSONDecoder struct {
	br *bufio.Reader
	// long accumulates a line that outgrows br's buffer.
	long []byte
	line int
	done bool
}

// NewNDJSONDecoder returns a decoder reading from r.
func NewNDJSONDecoder(r io.Reader) *NDJSONDecoder {
	return &NDJSONDecoder{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next decodes up to max records (max <= 0 means unbounded) and
// reports the raw input bytes consumed for them, delimiters included.
// Once the stream is exhausted it returns io.EOF with no records; a
// malformed or invalid record aborts the chunk with a *LineError
// carrying the global 1-based line number. Blank lines are skipped but
// still counted, matching line numbers in the sender's file.
func (d *NDJSONDecoder) Next(max int) ([]Record, int64, error) {
	if d.done {
		return nil, 0, io.EOF
	}
	var out []Record
	var consumed int64
	for max <= 0 || len(out) < max {
		raw, err := d.readLine()
		if err != nil && err != io.EOF {
			return nil, 0, fmt.Errorf("dataset: reading NDJSON: %w", err)
		}
		d.line++
		consumed += int64(len(raw))
		rec, ok, lerr := decodeLine(raw, d.line)
		if lerr != nil {
			return nil, 0, lerr
		}
		if ok {
			out = append(out, rec)
		}
		if err == io.EOF {
			d.done = true
			break
		}
	}
	if len(out) == 0 && d.done {
		return nil, consumed, io.EOF
	}
	return out, consumed, nil
}

// readLine returns the next line, its '\n' included, valid until the
// next call; at the end of input it returns the unterminated rest and
// io.EOF.
func (d *NDJSONDecoder) readLine() ([]byte, error) {
	raw, err := d.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return raw, err
	}
	d.long = append(d.long[:0], raw...)
	for err == bufio.ErrBufferFull {
		raw, err = d.br.ReadSlice('\n')
		d.long = append(d.long, raw...)
	}
	return d.long, err
}

// Line reports how many input lines the decoder has consumed — after a
// successful Next, the line number of the last record returned.
func (d *NDJSONDecoder) Line() int { return d.line }

// ReadNDJSON parses newline-delimited JSON records from r in one call,
// validating each. It reports the 1-based line number of the first
// malformed record via *LineError. This is the whole-input convenience
// over NDJSONDecoder; streaming callers should chunk with the decoder
// instead.
func ReadNDJSON(r io.Reader) ([]Record, error) {
	dec := NewNDJSONDecoder(r)
	var out []Record
	for {
		rs, _, err := dec.Next(0)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
}

// ParseNDJSON parses an NDJSON body already in memory, line by line
// in place, with the same rules, records and errors as ReadNDJSON but
// without a reader or its buffer. The WAL decodes frame payloads
// through it.
func ParseNDJSON(data []byte) ([]Record, error) {
	out := make([]Record, 0, bytes.Count(data, []byte{'\n'}))
	for line := 1; ; line++ {
		raw := data
		i := bytes.IndexByte(data, '\n')
		if i >= 0 {
			raw = data[:i]
		}
		rec, ok, err := decodeLine(raw, line)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, rec)
		}
		if i < 0 {
			return out, nil
		}
		data = data[i+1:]
	}
}

// csvHeader is the fixed CSV column order.
var csvHeader = []string{"id", "time", "dataset", "region", "asn", "tech", "download_mbps", "upload_mbps", "latency_ms", "loss_frac"}

// WriteCSV writes records with a header row. Missing metrics are empty
// cells.
func WriteCSV(w io.Writer, rs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	fmtMetric := func(v float64) string {
		if math.IsNaN(v) {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for i, r := range rs {
		row := []string{
			r.ID,
			r.Time.UTC().Format(time.RFC3339Nano),
			r.Dataset,
			r.Region,
			strconv.FormatUint(uint64(r.ASN), 10),
			r.Tech,
			fmtMetric(r.DownloadMbps),
			fmtMetric(r.UploadMbps),
			fmtMetric(r.LatencyMS),
			fmtMetric(r.LossFrac),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records written by WriteCSV, validating each.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, want %q", i, header[i], want)
		}
	}
	var out []Record
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
		t, err := time.Parse(time.RFC3339Nano, row[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d time: %w", line, err)
		}
		asn, err := strconv.ParseUint(row[4], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d asn: %w", line, err)
		}
		rec := NewRecord(row[0], row[2], row[3], t)
		rec.ASN = uint32(asn)
		rec.Tech = row[5]
		for i, m := range []Metric{Download, Upload, Latency, Loss} {
			cell := row[6+i]
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d %s: %w", line, m, err)
			}
			rec.SetValue(m, v)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
