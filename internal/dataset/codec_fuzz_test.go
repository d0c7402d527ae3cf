package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
	"time"
)

// toWire is the reference encoder's input: the jsonRecord
// json.Encoder writes for r, which the hand-written encoder must match
// byte for byte.
func toWire(r Record) jsonRecord {
	w := jsonRecord{ID: r.ID, Time: r.Time, Dataset: r.Dataset, Region: r.Region, ASN: r.ASN, Tech: r.Tech}
	if v, ok := r.Value(Download); ok {
		w.Download = &v
	}
	if v, ok := r.Value(Upload); ok {
		w.Upload = &v
	}
	if v, ok := r.Value(Latency); ok {
		w.Latency = &v
	}
	if v, ok := r.Value(Loss); ok {
		w.Loss = &v
	}
	return w
}

// onlyWriter hides a *bytes.Buffer's type so WriteNDJSON takes its
// chunked path for writers it cannot append to.
type onlyWriter struct{ io.Writer }

// FuzzRecordNDJSON: for any record, the hand-written encoder writes
// exactly the bytes json.Encoder writes for its wire form, and fails
// exactly when (and with the error text) json.Encoder fails.
func FuzzRecordNDJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, id, ds, region, tech string, asn uint32,
		sec, nsec int64, offset int32, down, up, lat, loss float64) {
		r := Record{ID: id, Dataset: ds, Region: region, ASN: asn, Tech: tech,
			Time:         time.Unix(sec, nsec).In(time.FixedZone("", int(offset))),
			DownloadMbps: down, UploadMbps: up, LatencyMS: lat, LossFrac: loss}

		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(toWire(r))
		got, gerr := appendRecord(nil, r)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("error %v, encoding/json says %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoded\n%q\nencoding/json writes\n%q", got, want.Bytes())
		}
		for _, w := range []func(*bytes.Buffer) io.Writer{
			func(b *bytes.Buffer) io.Writer { return b },
			func(b *bytes.Buffer) io.Writer { return onlyWriter{b} },
		} {
			var b bytes.Buffer
			b.WriteString("prefix\n")
			if err := WriteNDJSON(w(&b), []Record{r, r}); err != nil {
				t.Fatal(err)
			}
			if wantAll := "prefix\n" + want.String() + want.String(); b.String() != wantAll {
				t.Fatalf("WriteNDJSON wrote\n%q\nwant\n%q", b.String(), wantAll)
			}
		}
	})
}

// referenceDecode is the decoder's specification: split on '\n', trim
// trailing '\r's, skip blank lines, and run json.Unmarshal + fromWire +
// Validate on each remaining line. It returns the records before the
// first bad line and that line's error.
func referenceDecode(data []byte) ([]Record, *LineError) {
	var out []Record
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimRight(line, "\r")
		if len(line) == 0 {
			continue
		}
		var w jsonRecord
		if err := json.Unmarshal(line, &w); err != nil {
			return out, &LineError{Line: i + 1, Err: err}
		}
		r := fromWire(w)
		if err := r.Validate(); err != nil {
			return out, &LineError{Line: i + 1, Err: err}
		}
		out = append(out, r)
	}
	return out, nil
}

// sameRecord compares every field exactly: floats by bit pattern, times
// by instant and by zone name and offset.
func sameRecord(a, b Record) bool {
	an, ao := a.Time.Zone()
	bn, bo := b.Time.Zone()
	return a.ID == b.ID && a.Dataset == b.Dataset && a.Region == b.Region &&
		a.ASN == b.ASN && a.Tech == b.Tech &&
		a.Time.Equal(b.Time) && an == bn && ao == bo &&
		a.Time.Location().String() == b.Time.Location().String() &&
		math.Float64bits(a.DownloadMbps) == math.Float64bits(b.DownloadMbps) &&
		math.Float64bits(a.UploadMbps) == math.Float64bits(b.UploadMbps) &&
		math.Float64bits(a.LatencyMS) == math.Float64bits(b.LatencyMS) &&
		math.Float64bits(a.LossFrac) == math.Float64bits(b.LossFrac)
}

func sameLineError(t *testing.T, how string, got error, want *LineError) {
	t.Helper()
	if want == nil {
		if got != nil {
			t.Fatalf("%s: error %v, reference accepts the input", how, got)
		}
		return
	}
	var le *LineError
	if !errors.As(got, &le) {
		t.Fatalf("%s: error %v, reference fails with %v", how, got, want)
	}
	if le.Line != want.Line || le.Err.Error() != want.Err.Error() {
		t.Fatalf("%s: error %v, reference fails with %v", how, le, want)
	}
}

func sameRecords(t *testing.T, how string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference decodes %d", how, len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s: record %d is\n%+v\nreference decodes\n%+v", how, i, got[i], want[i])
		}
	}
}

// FuzzNDJSONDecoder: for any input, NDJSONDecoder.Next (unbounded and
// one record at a time) and ParseNDJSON return the records and the
// *LineError the encoding/json reference returns.
func FuzzNDJSONDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceDecode(data)
		for _, chunk := range []int{0, 1} {
			dec := NewNDJSONDecoder(bytes.NewReader(data))
			var got []Record
			var consumed int64
			var err error
			for {
				var rs []Record
				var n int64
				rs, n, err = dec.Next(chunk)
				got, consumed = append(got, rs...), consumed+n
				if err != nil {
					break
				}
			}
			if err == io.EOF {
				err = nil
			}
			how := "Next(0)"
			if chunk == 1 {
				how = "Next(1)"
			}
			sameLineError(t, how, err, wantErr)
			if wantErr == nil || chunk == 1 {
				// Next(1) hands out every record before the bad line;
				// Next(0) drops the chunk the bad line aborts.
				sameRecords(t, how, got, want)
			}
			if err == nil && consumed != int64(len(data)) {
				t.Fatalf("%s consumed %d of %d bytes", how, consumed, len(data))
			}
		}
		got, err := ParseNDJSON(data)
		sameLineError(t, "ParseNDJSON", err, wantErr)
		if wantErr == nil {
			sameRecords(t, "ParseNDJSON", got, want)
		}
	})
}
