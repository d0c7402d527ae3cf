package iqb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/rng"
	"iqb/internal/stats"
)

var (
	gatherStart   = time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	gatherRegions = []string{"XA", "XA-01", "XA-02", "XA-01-001", "XA-01-002", "XA-02-001", "XA-02-002", "XB"}
)

// gatherStore builds a week of records over two states of two counties
// each: values straddle the high-quality bars, some records miss a
// metric, ASNs vary, one dataset is not in the configuration, and one
// county holds more values per cell than the sketch cutover.
func gatherStore(t testing.TB) *dataset.Store {
	t.Helper()
	store := dataset.NewStore()
	src := rng.New(17)
	counties := []string{"XA-01-001", "XA-01-002", "XA-02-001", "XA-02-002"}
	var batch []dataset.Record
	for c, county := range counties {
		n := 150
		if c == 0 {
			n = 1200
		}
		for i := 0; i < n; i++ {
			for _, ds := range []string{DatasetNDT, DatasetCloudflare, DatasetOokla, "other"} {
				ts := gatherStart.Add(time.Duration(src.Intn(7*24*3600)) * time.Second)
				r := dataset.NewRecord(fmt.Sprintf("%s-%d", county, i), ds, county, ts)
				r.ASN = uint32(64500 + src.Intn(3))
				r.SetValue(dataset.Download, src.LogNormalFromMoments(150, 0.8))
				r.SetValue(dataset.Upload, src.LogNormalFromMoments(30, 0.8))
				if !src.Bool(0.1) {
					r.SetValue(dataset.Latency, src.LogNormalFromMoments(40, 0.6))
				}
				if ds != DatasetOokla {
					r.SetValue(dataset.Loss, src.Float64()*0.01)
				}
				batch = append(batch, r)
			}
		}
	}
	if err := store.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	return store
}

// perCellScore is the reference the one-pass paths must match: one store
// query per configured (dataset, requirement) cell.
func perCellScore(c Config, store *dataset.Store, base dataset.Filter) (Score, error) {
	agg := NewAggregates()
	for _, d := range c.Datasets {
		for _, r := range d.Capabilities {
			f := base
			f.Dataset = d.Name
			p, n, err := store.Aggregate(f, r, c.effectivePercentile(r))
			if errors.Is(err, stats.ErrNoData) {
				continue
			}
			if err != nil {
				return Score{}, err
			}
			agg.Set(d.Name, r, p, n)
		}
	}
	return c.ScoreAggregates(agg)
}

// sameScore fails unless both answers encode to the same bytes, or both
// are the same error.
func sameScore(t *testing.T, what string, got Score, gotErr error, want Score, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
		}
		return
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

func TestGatheredScoresMatchPerCellQueries(t *testing.T) {
	store := gatherStore(t)
	// Besides the default, a cell layout unlike it: datasets out of name
	// order, capabilities out of requirement order with one repeated, and
	// the same-tail convention at another percentile.
	odd := DefaultConfig()
	odd.Datasets = []DatasetInfo{
		{Name: DatasetOokla, Capabilities: []Requirement{Latency, Download, Latency}},
		{Name: DatasetNDT, Capabilities: []Requirement{Loss, Upload, Download, Latency}},
	}
	odd.DatasetWeights = EqualDatasetWeights(odd.Datasets)
	odd.Convention, odd.Percentile = SameTail, 90
	src := rng.New(3)
	for i := 0; i < 150; i++ {
		cfg := DefaultConfig()
		if i%2 == 1 {
			cfg = odd
		}
		f := dataset.Filter{RegionPrefix: gatherRegions[src.Intn(len(gatherRegions))]}
		if src.Bool(0.8) {
			from := src.Intn(7 * 24)
			f.From = gatherStart.Add(time.Duration(from) * time.Hour)
			if src.Bool(0.8) {
				f.To = f.From.Add(time.Duration(1+src.Intn(7*24-from)) * time.Hour)
			}
		}
		if src.Bool(0.3) {
			f.ASN = uint32(64500 + src.Intn(4))
		}
		got, gotErr := cfg.ScoreFiltered(store, f)
		want, wantErr := perCellScore(cfg, store, f)
		sameScore(t, fmt.Sprintf("filter %+v", f), got, gotErr, want, wantErr)
	}
}

func TestScoreWindowsMatchesPerWindowScores(t *testing.T) {
	store := gatherStore(t)
	cfg := DefaultConfig()
	src := rng.New(5)
	windows := []time.Duration{time.Hour, 6 * time.Hour, 24 * time.Hour, 37 * time.Minute}
	for i := 0; i < 16; i++ {
		region := gatherRegions[src.Intn(len(gatherRegions))]
		window := windows[src.Intn(len(windows))]
		// Unaligned bounds that may overhang the data on either side.
		start := gatherStart.Add(time.Duration(src.Intn(9*24*60)-24*60) * time.Minute)
		end := start.Add(time.Duration(1+src.Intn(3*24*60)) * time.Minute)
		points, err := cfg.ScoreWindows(store, region, start, end, window)
		if err != nil {
			t.Fatal(err)
		}
		next := start
		for _, p := range points {
			if !p.From.Equal(next) || !p.From.Before(p.To) || p.To.After(end) {
				t.Fatalf("%s window %v..%v does not tile [%v, %v)", region, p.From, p.To, start, end)
			}
			next = p.To
			want, wantErr := perCellScore(cfg, store, dataset.Filter{RegionPrefix: region, From: p.From, To: p.To})
			if errors.Is(wantErr, ErrNoUsableData) {
				if !p.NoData {
					t.Fatalf("%s %v: scored %v, want no data", region, p.From, p.Score.IQB)
				}
				continue
			}
			sameScore(t, fmt.Sprintf("%s %v", region, p.From), p.Score, nil, want, wantErr)
		}
		if !next.Equal(end) {
			t.Fatalf("%s windows end at %v, want %v", region, next, end)
		}
	}
}

// TestScoreWindowsTinyWindows scores a week in 10 s windows, nearly all
// empty: points still tile the span, only windows holding records are
// scored, and the series allocates per scored window, not per window.
func TestScoreWindowsTinyWindows(t *testing.T) {
	store := dataset.NewStore()
	src := rng.New(9)
	busy := []time.Time{gatherStart.Add(26 * time.Hour), gatherStart.Add(5*24*time.Hour + 7*time.Second)}
	for b, at := range busy {
		for i := 0; i < 3*b+12; i++ {
			for _, ds := range []string{DatasetNDT, DatasetCloudflare, DatasetOokla} {
				r := dataset.NewRecord(fmt.Sprintf("t%d-%d", b, i), ds, "XA-01-001", at.Add(time.Duration(src.Intn(3))*time.Second))
				r.SetValue(dataset.Download, src.LogNormalFromMoments(150, 0.8))
				r.SetValue(dataset.Upload, src.LogNormalFromMoments(30, 0.8))
				r.SetValue(dataset.Latency, src.LogNormalFromMoments(40, 0.6))
				if err := store.Add(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cfg := DefaultConfig()
	const window = 10 * time.Second
	end := gatherStart.Add(7 * 24 * time.Hour)
	points, err := cfg.ScoreWindows(store, "XA", gatherStart, end, window)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(end.Sub(gatherStart) / window); len(points) != want {
		t.Fatalf("%d points, want %d", len(points), want)
	}
	scored := 0
	for i, p := range points {
		if !p.From.Equal(gatherStart.Add(time.Duration(i) * window)) {
			t.Fatalf("point %d starts at %v", i, p.From)
		}
		if p.NoData {
			continue
		}
		scored++
		want, wantErr := perCellScore(cfg, store, dataset.Filter{RegionPrefix: "XA", From: p.From, To: p.To})
		sameScore(t, fmt.Sprintf("window %v", p.From), p.Score, nil, want, wantErr)
	}
	if scored != len(busy) {
		t.Fatalf("%d windows scored, want %d", scored, len(busy))
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := cfg.ScoreWindows(store, "XA", gatherStart, end, window); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(points)) / 100; allocs > limit {
		t.Errorf("%v allocations for %d windows, want at most %v", allocs, len(points), limit)
	}
}

// TestScoreAllocs pins what one score allocates on the compiled plan.
// ScoreAggregates on every default cell makes 11 allocations: 7 to
// compile the plan, 1 to read the aggregates into it and 3 for the
// result's use-case, requirement and dataset slices. An unbounded county
// ScoreRegion answered from the cell index makes 24: the plan's 7 and
// the result's 3 as above, 1 for the cell aggregates, and the sketcher
// walk's 13 (its answers, its accumulators and one exact copy per cell).
// The ceilings leave 2 for toolchain differences.
func TestScoreAllocs(t *testing.T) {
	cfg := DefaultConfig()
	agg := NewAggregates()
	for _, d := range cfg.Datasets {
		for _, r := range d.Capabilities {
			agg.Set(d.Name, r, 42, 100)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := cfg.ScoreAggregates(agg); err != nil {
			t.Fatal(err)
		}
	}); n > 11+2 {
		t.Errorf("ScoreAggregates: %v allocations, want at most 13", n)
	}
	store := gatherStore(t)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := cfg.ScoreRegion(store, "XA-01-002", time.Time{}, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}); n > 24+2 {
		t.Errorf("county ScoreRegion: %v allocations, want at most 26", n)
	}
}
