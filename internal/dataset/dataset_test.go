package dataset

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"iqb/internal/stats"
)

var t0 = time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)

func rec(id, ds, region string, asn uint32, down, up, lat, loss float64) Record {
	r := NewRecord(id, ds, region, t0)
	r.ASN = asn
	if !math.IsNaN(down) {
		r.SetValue(Download, down)
	}
	if !math.IsNaN(up) {
		r.SetValue(Upload, up)
	}
	if !math.IsNaN(lat) {
		r.SetValue(Latency, lat)
	}
	if !math.IsNaN(loss) {
		r.SetValue(Loss, loss)
	}
	return r
}

var nan = math.NaN()

func TestMetricStrings(t *testing.T) {
	for _, m := range AllMetrics() {
		back, err := ParseMetric(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v failed: %v %v", m, back, err)
		}
	}
	if _, err := ParseMetric("vibes"); err == nil {
		t.Error("unknown metric should error")
	}
	if Metric(42).String() == "" {
		t.Error("unknown metric should still format")
	}
}

func TestRecordValueSetValue(t *testing.T) {
	r := NewRecord("a", "ndt", "XA", t0)
	for _, m := range AllMetrics() {
		if r.Has(m) {
			t.Errorf("fresh record should not have %v", m)
		}
	}
	r.SetValue(Download, 100)
	r.SetValue(Loss, 0.01)
	if v, ok := r.Value(Download); !ok || v != 100 {
		t.Errorf("download = %v, %v", v, ok)
	}
	if !r.Has(Loss) || r.Has(Upload) {
		t.Error("presence flags wrong")
	}
	if _, ok := r.Value(Metric(99)); ok {
		t.Error("unknown metric should be absent")
	}
}

func TestRecordValidate(t *testing.T) {
	good := rec("a", "ndt", "XA-01", 64500, 100, 10, 20, 0.01)
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	cases := []struct {
		name string
		mut  func(*Record)
	}{
		{"no id", func(r *Record) { r.ID = "" }},
		{"no dataset", func(r *Record) { r.Dataset = "" }},
		{"no region", func(r *Record) { r.Region = "" }},
		{"no time", func(r *Record) { r.Time = time.Time{} }},
		{"neg down", func(r *Record) { r.DownloadMbps = -1 }},
		{"neg up", func(r *Record) { r.UploadMbps = -2 }},
		{"neg latency", func(r *Record) { r.LatencyMS = -3 }},
		{"loss > 1", func(r *Record) { r.LossFrac = 1.5 }},
	}
	for _, tc := range cases {
		r := good
		tc.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: should be invalid", tc.name)
		}
	}
	empty := NewRecord("a", "ndt", "XA", t0)
	if err := empty.Validate(); err == nil {
		t.Error("record with no metrics should be invalid")
	}
}

func fill(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	records := []Record{
		rec("n1", "ndt", "XA-01-001", 64500, 100, 10, 20, 0.001),
		rec("n2", "ndt", "XA-01-001", 64501, 50, 5, 40, 0.01),
		rec("n3", "ndt", "XA-01-002", 64500, 10, 1, 80, 0.02),
		rec("c1", "cloudflare", "XA-01-001", 64500, 90, 9, 25, 0.002),
		rec("o1", "ookla", "XA-02-001", 64501, 200, 20, 15, nan), // no loss
	}
	if err := s.AddBatch(records); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreAdd(t *testing.T) {
	s := fill(t)
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	// Duplicate (dataset, id).
	if err := s.Add(rec("n1", "ndt", "XA-01-001", 0, 1, nan, nan, nan)); err == nil {
		t.Error("duplicate should error")
	}
	// Same id, different dataset is fine.
	if err := s.Add(rec("n1", "cloudflare", "XA-01-001", 0, 1, nan, nan, nan)); err != nil {
		t.Error(err)
	}
	// Invalid record rejected.
	if err := s.Add(Record{}); err == nil {
		t.Error("invalid record should error")
	}
	// AddBatch surfaces position.
	err := s.AddBatch([]Record{rec("x1", "ndt", "XA", 0, 1, nan, nan, nan), {}})
	if err == nil || !strings.Contains(err.Error(), "record 2 of 2") {
		t.Errorf("AddBatch error = %v", err)
	}
}

func TestStoreEnumerations(t *testing.T) {
	s := fill(t)
	ds := s.Datasets()
	if len(ds) != 3 || ds[0] != "cloudflare" || ds[2] != "ookla" {
		t.Errorf("Datasets = %v", ds)
	}
	regions := s.Regions()
	if len(regions) != 3 {
		t.Errorf("Regions = %v", regions)
	}
}

func TestFilterBasics(t *testing.T) {
	s := fill(t)
	if n := len(s.Gather(Filter{}, nil).Rows); n != 5 {
		t.Errorf("unfiltered count = %d", n)
	}
	if n := len(s.Gather(Filter{Dataset: "ndt"}, nil).Rows); n != 3 {
		t.Errorf("ndt count = %d", n)
	}
	if n := len(s.Gather(Filter{ASN: 64501}, nil).Rows); n != 2 {
		t.Errorf("ASN count = %d", n)
	}
	got := s.Select(Filter{Dataset: "ookla"})
	if len(got) != 1 || got[0].ID != "o1" {
		t.Errorf("Select = %+v", got)
	}
	// Gather selects what Select does, in any order.
	for _, f := range []Filter{{}, {ASN: 64501}, {RegionPrefix: "XA-01"}, {Dataset: "ndt", RegionPrefix: "XA-01"}, {To: t0}} {
		var got, want []string
		datasets := []string{"ookla", "cloudflare", "ndt"}
		v := s.Gather(f, datasets)
		for _, r := range v.Rows {
			got = append(got, datasets[v.DatasetIndex(r)]+"/"+string(s.id(r)))
		}
		for _, r := range s.Select(f) {
			want = append(want, r.Dataset+"/"+r.ID)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("Gather(%+v) = %v, Select = %v", f, got, want)
		}
	}
}

func TestFilterRegionHierarchy(t *testing.T) {
	s := fill(t)
	// County exact.
	if n := len(s.Gather(Filter{RegionPrefix: "XA-01-001"}, nil).Rows); n != 3 {
		t.Errorf("county count = %d", n)
	}
	// State subtree.
	if n := len(s.Gather(Filter{RegionPrefix: "XA-01"}, nil).Rows); n != 4 {
		t.Errorf("state count = %d", n)
	}
	// Country subtree.
	if n := len(s.Gather(Filter{RegionPrefix: "XA"}, nil).Rows); n != 5 {
		t.Errorf("country count = %d", n)
	}
	// Prefix must respect code boundaries: "XA-01-00" is not a region
	// prefix of "XA-01-001" in the hierarchical sense.
	if n := len(s.Gather(Filter{RegionPrefix: "XA-01-00"}, nil).Rows); n != 0 {
		t.Errorf("non-boundary prefix matched %d records", n)
	}
}

func TestFilterTimeRange(t *testing.T) {
	s := NewStore()
	early := rec("a", "ndt", "XA", 0, 1, nan, nan, nan)
	early.Time = t0.Add(-time.Hour)
	late := rec("b", "ndt", "XA", 0, 2, nan, nan, nan)
	late.Time = t0.Add(time.Hour)
	if err := s.AddBatch([]Record{early, late}); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Gather(Filter{From: t0}, nil).Rows); n != 1 {
		t.Errorf("From filter count = %d", n)
	}
	if n := len(s.Gather(Filter{To: t0}, nil).Rows); n != 1 {
		t.Errorf("To filter count = %d", n)
	}
	if n := len(s.Gather(Filter{From: t0.Add(-2 * time.Hour), To: t0.Add(2 * time.Hour)}, nil).Rows); n != 2 {
		t.Errorf("range count = %d", n)
	}
}

func TestValuesAndAggregate(t *testing.T) {
	s := fill(t)
	vals := s.Values(Filter{Dataset: "ndt"}, Download)
	if len(vals) != 3 {
		t.Fatalf("values = %v", vals)
	}
	med, n, err := s.Aggregate(Filter{Dataset: "ndt"}, Download, 50)
	if err != nil || med != 50 || n != 3 {
		t.Errorf("median = %v over %d values, %v", med, n, err)
	}
	if _, n, err := s.Aggregate(Filter{}, Download, 50); err != nil || n != 5 {
		t.Errorf("unfiltered aggregate over %d values, %v", n, err)
	}
	// Ookla has no loss records: aggregating loss over ookla is ErrNoData.
	if _, _, err := s.Aggregate(Filter{Dataset: "ookla"}, Loss, 95); !errors.Is(err, stats.ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	records := []Record{
		rec("n1", "ndt", "XA-01-001", 64500, 100, 10, 20, 0.001),
		rec("o1", "ookla", "XA-02-001", 0, 200, 20, 15, nan),
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, records); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "loss_frac") && strings.Contains(strings.Split(buf.String(), "\n")[1], "loss_frac") {
		t.Error("missing loss should be omitted from wire form")
	}
	back, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip count = %d", len(back))
	}
	if back[0].DownloadMbps != 100 || back[0].ASN != 64500 {
		t.Errorf("record 0 = %+v", back[0])
	}
	if back[1].Has(Loss) {
		t.Error("ookla record should still lack loss")
	}
	if !back[1].Has(Download) {
		t.Error("ookla record should keep download")
	}
}

func TestReadNDJSONErrors(t *testing.T) {
	if _, err := ReadNDJSON(strings.NewReader("{oops\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("malformed JSON error = %v", err)
	}
	// Valid JSON, invalid record.
	bad := `{"id":"","time":"2025-06-01T00:00:00Z","dataset":"ndt","region":"XA","download_mbps":1}`
	if _, err := ReadNDJSON(strings.NewReader(bad)); err == nil {
		t.Error("invalid record should error")
	}
	// Blank lines are skipped.
	ok := `{"id":"a","time":"2025-06-01T00:00:00Z","dataset":"ndt","region":"XA","download_mbps":1}`
	got, err := ReadNDJSON(strings.NewReader("\n" + ok + "\n\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("blank-line handling: %v, %v", got, err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	records := []Record{
		rec("n1", "ndt", "XA-01-001", 64500, 100.5, 10.25, 20, 0.001),
		rec("o1", "ookla", "XA-02-001", 0, 200, 20, 15, nan),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip count = %d", len(back))
	}
	if back[0].DownloadMbps != 100.5 || back[0].UploadMbps != 10.25 {
		t.Errorf("record 0 = %+v", back[0])
	}
	if back[1].Has(Loss) {
		t.Error("empty cell should stay missing")
	}
	if !back[0].Time.Equal(t0) {
		t.Errorf("time = %v, want %v", back[0].Time, t0)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("short header should error")
	}
	wrong := strings.Join([]string{"id", "time", "dataset", "region", "asn", "tech", "down", "upload_mbps", "latency_ms", "loss_frac"}, ",")
	if _, err := ReadCSV(strings.NewReader(wrong + "\n")); err == nil {
		t.Error("misnamed column should error")
	}
	head := strings.Join(csvHeader, ",") + "\n"
	if _, err := ReadCSV(strings.NewReader(head + "a,notatime,ndt,XA,0,,1,,,\n")); err == nil {
		t.Error("bad time should error")
	}
	if _, err := ReadCSV(strings.NewReader(head + "a,2025-06-01T00:00:00Z,ndt,XA,notanasn,,1,,,\n")); err == nil {
		t.Error("bad asn should error")
	}
	if _, err := ReadCSV(strings.NewReader(head + "a,2025-06-01T00:00:00Z,ndt,XA,0,,notanumber,,,\n")); err == nil {
		t.Error("bad metric should error")
	}
	if _, err := ReadCSV(strings.NewReader(head + "a,2025-06-01T00:00:00Z,ndt,XA,0,,,,,\n")); err == nil {
		t.Error("metric-free row should error")
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				r := rec(strings.Repeat("x", g+1)+"-"+uniq(i), "ndt", "XA-01-001", 64500, float64(i), nan, nan, nan)
				if err := s.Add(r); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				s.Gather(Filter{Dataset: "ndt"}, nil)
				s.Values(Filter{}, Download)
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}

func uniq(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26)) + string(rune('0'+i%10)) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func BenchmarkStoreAggregate(b *testing.B) {
	s := NewStore()
	for i := 0; i < 10000; i++ {
		r := rec("r"+itoa(i), "ndt", "XA-01-001", 64500, float64(i%500), nan, nan, nan)
		if err := s.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Aggregate(Filter{Dataset: "ndt"}, Download, 95); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTimeBounds(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.TimeBounds(Filter{}); ok {
		t.Error("empty store should have no bounds")
	}
	early := rec("a", "ndt", "XA", 0, 1, nan, nan, nan)
	early.Time = t0.Add(-time.Hour)
	late := rec("b", "ndt", "XA", 0, 2, nan, nan, nan)
	late.Time = t0.Add(time.Hour)
	if err := s.AddBatch([]Record{early, late}); err != nil {
		t.Fatal(err)
	}
	min, max, ok := s.TimeBounds(Filter{})
	if !ok || !min.Equal(early.Time) || !max.Equal(late.Time) {
		t.Errorf("bounds = %v %v %v", min, max, ok)
	}
	// Filtered bounds.
	min, max, ok = s.TimeBounds(Filter{From: t0})
	if !ok || !min.Equal(late.Time) || !max.Equal(late.Time) {
		t.Errorf("filtered bounds = %v %v %v", min, max, ok)
	}
}
