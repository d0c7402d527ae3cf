package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestReadNDJSONLongLine pins the bufio.Reader rewrite: the old
// bufio.Scanner implementation capped lines at 4 MiB and died with
// "token too long" on anything the writer was happy to produce. The WAL
// reader funnels recovery payloads through ReadNDJSON, so a reader cap
// below the writer's limit would turn a large acknowledged batch into
// unrecoverable data.
func TestReadNDJSONLongLine(t *testing.T) {
	r := NewRecord("big", "ndt", "XA-01", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC))
	r.DownloadMbps = 100
	r.Tech = strings.Repeat("x", 5<<20) // one line well past the old 4 MiB cap

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, []Record{r}); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatalf("ReadNDJSON: %v", err)
	}
	if len(got) != 1 || got[0].Tech != r.Tech {
		t.Fatalf("long record did not round-trip: got %d records", len(got))
	}
}

func TestReadNDJSONLineNumbers(t *testing.T) {
	good := `{"id":"a","time":"2025-06-02T00:00:00Z","dataset":"ndt","region":"XA-01","download_mbps":10}`
	in := good + "\n\nnot json\n"
	_, err := ReadNDJSON(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want error naming line 3, got %v", err)
	}
	// A final line without a trailing newline still parses.
	got, err := ReadNDJSON(strings.NewReader(good + "\n" + good2()))
	if err != nil {
		t.Fatalf("ReadNDJSON without trailing newline: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

func good2() string {
	return `{"id":"b","time":"2025-06-02T00:00:00Z","dataset":"ndt","region":"XA-01","download_mbps":20}`
}

// TestNDJSONDecoderChunks pins the streaming decoder contract: records
// arrive in caller-sized chunks, byte accounting covers delimiters, and
// the stream ends with a bare io.EOF.
func TestNDJSONDecoderChunks(t *testing.T) {
	var buf bytes.Buffer
	const n = 7
	for i := 0; i < n; i++ {
		r := NewRecord("r"+strconv.Itoa(i), "ndt", "XA-01", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC))
		r.DownloadMbps = float64(10 + i)
		if err := WriteNDJSON(&buf, []Record{r}); err != nil {
			t.Fatalf("WriteNDJSON: %v", err)
		}
	}
	total := int64(buf.Len())
	dec := NewNDJSONDecoder(&buf)
	var got []Record
	var consumed int64
	for {
		rs, nb, err := dec.Next(3)
		consumed += nb
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(rs) > 3 {
			t.Fatalf("chunk of %d records exceeds max 3", len(rs))
		}
		got = append(got, rs...)
	}
	if len(got) != n {
		t.Fatalf("decoded %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if want := "r" + strconv.Itoa(i); r.ID != want {
			t.Fatalf("record %d is %q, want %q (order must be preserved)", i, r.ID, want)
		}
	}
	if consumed != total {
		t.Fatalf("consumed %d bytes, input was %d", consumed, total)
	}
}

// TestNDJSONDecoderGlobalLineNumbers: an error in a later chunk names
// the line's global position in the stream, not its offset within the
// chunk — that number is what an ingest client greps its file for.
func TestNDJSONDecoderGlobalLineNumbers(t *testing.T) {
	good := `{"id":"a","time":"2025-06-02T00:00:00Z","dataset":"ndt","region":"XA-01","download_mbps":10}`
	var in strings.Builder
	for i := 0; i < 5; i++ {
		in.WriteString(strings.Replace(good, `"a"`, `"a`+strconv.Itoa(i)+`"`, 1))
		in.WriteByte('\n')
	}
	in.WriteString("not json\n")
	dec := NewNDJSONDecoder(strings.NewReader(in.String()))
	if _, _, err := dec.Next(2); err != nil {
		t.Fatalf("chunk 1: %v", err)
	}
	if _, _, err := dec.Next(2); err != nil {
		t.Fatalf("chunk 2: %v", err)
	}
	_, _, err := dec.Next(2)
	var le *LineError
	if !errors.As(err, &le) {
		t.Fatalf("chunk 3 error is %T (%v), want *LineError", err, err)
	}
	if le.Line != 6 {
		t.Fatalf("LineError.Line = %d, want global line 6", le.Line)
	}
	if !strings.Contains(le.Error(), "line 6") {
		t.Fatalf("error text %q does not name line 6", le.Error())
	}
}

// TestNDJSONDecoderValidationError: a well-formed JSON line holding an
// invalid record is also located by line.
func TestNDJSONDecoderValidationError(t *testing.T) {
	bad := `{"id":"","time":"2025-06-02T00:00:00Z","dataset":"ndt","region":"XA-01","download_mbps":10}`
	dec := NewNDJSONDecoder(strings.NewReader(good2() + "\n" + bad + "\n"))
	_, _, err := dec.Next(0)
	var le *LineError
	if !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("want *LineError at line 2, got %v", err)
	}
}

// TestValidateRejectsNonFinite pins the satellite fix: ±Inf used to
// pass Validate (only negative ranges were checked) and then blow up
// WriteNDJSON mid-stream, because JSON cannot encode infinities.
func TestValidateRejectsNonFinite(t *testing.T) {
	base := func() Record {
		r := NewRecord("r1", "ndt", "XA-01", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC))
		r.DownloadMbps = 50
		return r
	}
	cases := []struct {
		name string
		mut  func(*Record)
	}{
		{"download +Inf", func(r *Record) { r.DownloadMbps = math.Inf(1) }},
		{"upload +Inf", func(r *Record) { r.UploadMbps = math.Inf(1) }},
		{"latency +Inf", func(r *Record) { r.LatencyMS = math.Inf(1) }},
		{"loss -Inf", func(r *Record) { r.LossFrac = math.Inf(-1) }},
	}
	for _, tc := range cases {
		r := base()
		tc.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a non-finite metric", tc.name)
		}
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("finite record rejected: %v", err)
	}
	// NaN stays the "missing" sentinel: setting it removes the metric
	// rather than producing an invalid value.
	nan := base()
	nan.UploadMbps = math.NaN()
	if err := nan.Validate(); err != nil {
		t.Fatalf("NaN (missing) metric rejected: %v", err)
	}
}

// randomRecord draws a record exercising the codec's edge cases:
// missing metrics, zero ASN, empty tech, sub-second timestamps, and
// values spanning many orders of magnitude.
func randomRecord(rng *rand.Rand, id int) Record {
	regions := []string{"XA", "XA-01", "XA-01-002", "XB-07", "XB-07-013"}
	datasets := []string{"ndt", "cloudflare", "ookla"}
	ts := time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(rng.Int63n(int64(7 * 24 * time.Hour))))
	if rng.Intn(2) == 0 {
		ts = ts.Add(time.Duration(rng.Int63n(int64(time.Second)))) // sub-second
	}
	// IDs unique per draw; occasionally with non-ASCII characters.
	prefix := "id-"
	if rng.Intn(4) == 0 {
		prefix = "±πid-"
	}
	r := NewRecord(
		prefix+strconv.Itoa(id),
		datasets[rng.Intn(len(datasets))],
		regions[rng.Intn(len(regions))],
		ts,
	)
	if rng.Intn(3) > 0 {
		r.ASN = uint32(rng.Intn(5)) * 64512 // zero ASN included
	}
	if rng.Intn(2) == 0 {
		r.Tech = []string{"fiber", "cable", "dsl", "fixed wireless"}[rng.Intn(4)]
	}
	magnitudes := []float64{1e-9, 1e-3, 1, 42.5, 1e3, 1e9}
	val := func() float64 { return magnitudes[rng.Intn(len(magnitudes))] * rng.Float64() }
	present := 0
	for _, m := range AllMetrics() {
		if rng.Intn(2) == 0 {
			continue // missing metric
		}
		v := val()
		if m == Loss {
			v = rng.Float64()
		}
		r.SetValue(m, v)
		present++
	}
	if present == 0 {
		r.SetValue(Download, val()) // Validate requires at least one metric
	}
	return r
}

func recordsEquivalent(a, b Record) bool {
	if a.ID != b.ID || a.Dataset != b.Dataset || a.Region != b.Region ||
		a.ASN != b.ASN || a.Tech != b.Tech || !a.Time.Equal(b.Time) {
		return false
	}
	for _, m := range AllMetrics() {
		av, aok := a.Value(m)
		bv, bok := b.Value(m)
		if aok != bok || (aok && av != bv) {
			return false
		}
	}
	return true
}

// TestCodecRoundTripProperty drives randomized records through both
// codecs: anything Validate accepts must survive NDJSON and CSV
// encode/decode bit-identically (missing metrics stay missing, values
// and sub-second timestamps are preserved exactly).
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20250728))
	const n = 500
	rs := make([]Record, n)
	for i := range rs {
		rs[i] = randomRecord(rng, i)
		if err := rs[i].Validate(); err != nil {
			t.Fatalf("generator produced an invalid record: %v", err)
		}
	}

	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, rs); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	back, err := ReadNDJSON(&nd)
	if err != nil {
		t.Fatalf("ReadNDJSON: %v", err)
	}
	if len(back) != n {
		t.Fatalf("NDJSON round-trip: %d records, want %d", len(back), n)
	}
	for i := range rs {
		if !recordsEquivalent(rs[i], back[i]) {
			t.Fatalf("NDJSON round-trip changed record %d:\n in: %+v\nout: %+v", i, rs[i], back[i])
		}
	}

	var cs bytes.Buffer
	if err := WriteCSV(&cs, rs); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err = ReadCSV(&cs)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(back) != n {
		t.Fatalf("CSV round-trip: %d records, want %d", len(back), n)
	}
	for i := range rs {
		if !recordsEquivalent(rs[i], back[i]) {
			t.Fatalf("CSV round-trip changed record %d:\n in: %+v\nout: %+v", i, rs[i], back[i])
		}
	}
}

// benchBody is a 50-record NDJSON body, the size of one ingest POST.
func benchBody(b *testing.B) ([]Record, []byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	rs := make([]Record, 50)
	for i := range rs {
		rs[i] = randomRecord(rng, i)
	}
	var body bytes.Buffer
	if err := WriteNDJSON(&body, rs); err != nil {
		b.Fatal(err)
	}
	return rs, body.Bytes()
}

// reportPerRecord adds ns and heap allocations per record to the
// per-op figures -benchmem prints.
func reportPerRecord(b *testing.B, records int, run func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}

// BenchmarkNDJSONDecode decodes a 50-record body the way POST
// /v1/ingest does: a fresh decoder over a reader sized to the body
// (between 4 and 64 KiB), records in one chunk.
func BenchmarkNDJSONDecode(b *testing.B) {
	rs, body := benchBody(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	size := min(max(len(body), 4<<10), 64<<10)
	reportPerRecord(b, len(rs), func() {
		got, _, err := NewNDJSONDecoder(bufio.NewReaderSize(bytes.NewReader(body), size)).Next(0)
		if err != nil || len(got) != len(rs) {
			b.Fatalf("decoded %d records: %v", len(got), err)
		}
	})
}

// BenchmarkWriteNDJSON encodes a 50-record batch, one WAL frame's
// worth, into a reused buffer.
func BenchmarkWriteNDJSON(b *testing.B) {
	rs, body := benchBody(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	reportPerRecord(b, len(rs), func() {
		buf.Reset()
		if err := WriteNDJSON(&buf, rs); err != nil {
			b.Fatal(err)
		}
	})
}
