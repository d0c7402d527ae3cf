package iqb

import (
	"errors"
	"math"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/rng"
)

// passRecord builds a record that meets every high-quality bar.
func passRecord(id, ds, region string, ts time.Time) dataset.Record {
	r := dataset.NewRecord(id, ds, region, ts)
	r.SetValue(dataset.Download, 500)
	r.SetValue(dataset.Upload, 100)
	r.SetValue(dataset.Latency, 12)
	if ds != DatasetOokla {
		r.SetValue(dataset.Loss, 0.0005)
	}
	return r
}

// failRecord builds a record that misses every bar.
func failRecord(id, ds, region string, ts time.Time) dataset.Record {
	r := dataset.NewRecord(id, ds, region, ts)
	r.SetValue(dataset.Download, 0.2)
	r.SetValue(dataset.Upload, 0.1)
	r.SetValue(dataset.Latency, 900)
	if ds != DatasetOokla {
		r.SetValue(dataset.Loss, 0.3)
	}
	return r
}

func TestScoreSketcherMatchesStore(t *testing.T) {
	cfg := DefaultConfig()
	store := dataset.NewStore()
	sk := dataset.NewSketcher(0)
	src := rng.New(9)
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3000; i++ {
		for _, ds := range []string{DatasetNDT, DatasetCloudflare, DatasetOokla} {
			r := dataset.NewRecord(itoa(i), ds, "XA-01-001", ts)
			r.SetValue(dataset.Download, src.LogNormalFromMoments(120, 0.7))
			r.SetValue(dataset.Upload, src.LogNormalFromMoments(15, 0.7))
			r.SetValue(dataset.Latency, src.LogNormalFromMoments(35, 0.5))
			if ds != DatasetOokla {
				r.SetValue(dataset.Loss, src.Float64()*0.01)
			}
			if err := store.Add(r); err != nil {
				t.Fatal(err)
			}
			if err := sk.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	exact, err := cfg.ScoreRegion(store, "XA-01-001", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := cfg.ScoreSketcher(sk, "XA-01-001")
	if err != nil {
		t.Fatal(err)
	}
	// Binary thresholds absorb small quantile error: the scores should
	// agree closely, usually exactly.
	if math.Abs(exact.IQB-approx.IQB) > 0.1 {
		t.Errorf("sketch score %v vs exact %v", approx.IQB, exact.IQB)
	}
}

func TestScoreSketcherErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := cfg.AggregateSketcher(nil, "XA"); err == nil {
		t.Error("nil sketcher should error")
	}
	if _, err := cfg.ScoreSketcher(dataset.NewSketcher(0), "XA"); err == nil {
		t.Error("empty sketcher should yield no usable data")
	}
}

func TestScoreWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinSamples = 1
	store := dataset.NewStore()
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	// Day 1: passing records; day 2: nothing; day 3: failing records.
	for i := 0; i < 5; i++ {
		ts1 := start.Add(time.Duration(i) * time.Hour)
		ts3 := start.Add(48*time.Hour + time.Duration(i)*time.Hour)
		for _, ds := range []string{DatasetNDT, DatasetCloudflare} {
			if err := store.Add(passRecord(itoa(i)+"-1", ds, "XA", ts1)); err != nil {
				t.Fatal(err)
			}
			if err := store.Add(failRecord(itoa(i)+"-3", ds, "XA", ts3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	points, err := cfg.ScoreWindows(store, "XA", start, start.Add(72*time.Hour), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	if points[0].NoData || math.Abs(points[0].Score.IQB-1) > 1e-12 {
		t.Errorf("day 1 = %+v, want score 1", points[0])
	}
	if !points[1].NoData {
		t.Errorf("day 2 should be NoData, got %+v", points[1])
	}
	if points[2].NoData || points[2].Score.IQB != 0 {
		t.Errorf("day 3 = %+v, want score 0", points[2])
	}
}

func TestScoreWindowsErrors(t *testing.T) {
	cfg := DefaultConfig()
	store := dataset.NewStore()
	now := time.Now()
	if _, err := cfg.ScoreWindows(store, "XA", now, now.Add(time.Hour), 0); err == nil {
		t.Error("zero window should error")
	}
	if _, err := cfg.ScoreWindows(store, "XA", now, now, time.Hour); err == nil {
		t.Error("empty range should error")
	}
	if _, err := cfg.ScoreWindows(nil, "XA", now, now.Add(time.Hour), time.Hour); err == nil {
		t.Error("nil store should error")
	}
	bad := cfg
	bad.Percentile = 0
	if _, err := bad.ScoreWindows(store, "XA", now, now.Add(time.Hour), time.Hour); err == nil {
		t.Error("invalid config should error")
	}
}

func TestScoreByHourOfDay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinSamples = 1
	store := dataset.NewStore()
	base := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	// Morning (hour 3): good records. Evening (hour 21): bad records.
	for i := 0; i < 5; i++ {
		for _, ds := range []string{DatasetNDT, DatasetCloudflare} {
			if err := store.Add(passRecord(itoa(i)+"-m", ds, "XA", base.Add(3*time.Hour))); err != nil {
				t.Fatal(err)
			}
			if err := store.Add(failRecord(itoa(i)+"-e", ds, "XA", base.Add(21*time.Hour))); err != nil {
				t.Fatal(err)
			}
		}
	}
	buckets, err := cfg.ScoreByHourOfDay(store, "XA", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d, want 4", len(buckets))
	}
	// Bucket 0 (00-06) has the good records; bucket 3 (18-24) the bad.
	if buckets[0].NoData || math.Abs(buckets[0].Score.IQB-1) > 1e-9 {
		t.Errorf("morning bucket score = %v, want ~1", buckets[0].Score.IQB)
	}
	if buckets[3].NoData || buckets[3].Score.IQB != 0 {
		t.Errorf("evening bucket = %+v", buckets[3])
	}
	if !buckets[1].NoData || !buckets[2].NoData {
		t.Error("empty buckets should be NoData")
	}
	if buckets[0].Records != 10 {
		t.Errorf("morning record count = %d", buckets[0].Records)
	}
	if _, err := cfg.ScoreByHourOfDay(store, "XA", 5); err == nil {
		t.Error("band width not dividing 24 should error")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf []byte
	for i > 0 {
		buf = append([]byte{byte('0' + i%10)}, buf...)
		i /= 10
	}
	return string(buf)
}

// TestScoreWindowsCap: a series of more than MaxWindows windows fails
// with ErrTooManyWindows before touching the store; exactly MaxWindows
// is allowed.
func TestScoreWindowsCap(t *testing.T) {
	cfg := DefaultConfig()
	store := dataset.NewStore()
	start := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(MaxWindows * time.Millisecond)
	points, err := cfg.ScoreWindows(store, "XA", start, end, time.Millisecond)
	if err != nil || len(points) != MaxWindows {
		t.Fatalf("MaxWindows windows: %d points, err %v", len(points), err)
	}
	for _, e := range []time.Time{end.Add(time.Nanosecond), start.Add(7 * 24 * time.Hour)} {
		if _, err := cfg.ScoreWindows(store, "XA", start, e, time.Millisecond); !errors.Is(err, ErrTooManyWindows) {
			t.Errorf("span %v of 1ms windows: err = %v, want ErrTooManyWindows", e.Sub(start), err)
		}
	}
	// A span past the largest Duration saturates instead of wrapping.
	far := start.AddDate(400, 0, 0)
	if _, err := cfg.ScoreWindows(store, "XA", start, far, time.Nanosecond); !errors.Is(err, ErrTooManyWindows) {
		t.Errorf("400-year span: err = %v, want ErrTooManyWindows", err)
	}
}
