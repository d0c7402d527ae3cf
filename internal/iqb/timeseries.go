package iqb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/stats"
)

// AggregateSketcher builds the framework aggregates from a streaming
// sketcher instead of raw records, using the configured percentile and
// convention. This is the memory-bounded production path, reading the
// sketcher's per-(dataset, region, metric) DDSketch-backed cells: exact
// below the cell cutover, within the sketch's relative-error bound
// above it — and deterministic either way, since cell state is a pure
// function of the ingested multiset. Thanks to the binary threshold
// comparison, the small quantile error of a promoted cell almost never
// changes a score.
func (c Config) AggregateSketcher(sk *dataset.Sketcher, region string) (*Aggregates, error) {
	if sk == nil {
		return nil, fmt.Errorf("iqb: nil sketcher")
	}
	agg := NewAggregates()
	for _, d := range c.Datasets {
		for _, r := range d.Capabilities {
			q := c.effectivePercentile(r) / 100
			v, n, err := sk.Quantile(d.Name, region, r, q)
			if errors.Is(err, stats.ErrNoData) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("iqb: sketch aggregate %s/%v: %w", d.Name, r, err)
			}
			agg.Set(d.Name, r, v, n)
		}
	}
	return agg, nil
}

// ScoreSketcher aggregates and scores one region from a sketch.
func (c Config) ScoreSketcher(sk *dataset.Sketcher, region string) (Score, error) {
	agg, err := c.AggregateSketcher(sk, region)
	if err != nil {
		return Score{}, err
	}
	return c.ScoreAggregates(agg)
}

// TimePoint is one window of a score time series.
type TimePoint struct {
	From  time.Time `json:"from"`
	To    time.Time `json:"to"`
	Score Score     `json:"score"`
	// NoData marks windows with no usable measurements.
	NoData bool `json:"no_data,omitempty"`
}

// MaxWindows caps the number of windows in one ScoreWindows series: a
// year of hourly windows or a week of 10-second ones fits under it, a
// week of 1-second windows does not, nor one of millisecond windows
// (about 6e8 points).
const MaxWindows = 100000

// ErrTooManyWindows marks a series whose span divided by its window
// width exceeds MaxWindows.
var ErrTooManyWindows = errors.New("iqb: too many windows")

// ScoreWindows scores a region over consecutive windows of the given
// width between start and end, returning one point per window. Windows
// without usable data are marked NoData rather than failing the series.
// A series of more than MaxWindows windows fails with ErrTooManyWindows
// before reading the store.
//
// The region's records in [start, end) are read from the store once,
// ordered by window and swept through one reused set of cells, so a
// window costs a TimePoint however many there are; each point equals
// ScoreRegion over its window.
func (c Config) ScoreWindows(store *dataset.Store, region string, start, end time.Time, window time.Duration) ([]TimePoint, error) {
	if window <= 0 {
		return nil, fmt.Errorf("iqb: window must be positive, got %v", window)
	}
	if !start.Before(end) {
		return nil, fmt.Errorf("iqb: start %v not before end %v", start, end)
	}
	// The division saturates rather than overflows: Sub clamps to the
	// largest Duration.
	span := end.Sub(start)
	if n := span / window; n > MaxWindows || (n == MaxWindows && span%window != 0) {
		return nil, fmt.Errorf("%w: %v over windows of %v exceeds %d", ErrTooManyWindows, span, window, MaxWindows)
	}
	if store == nil {
		return nil, fmt.Errorf("iqb: nil store")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Order the records by window so one pass sweeps the windows in turn.
	type binned struct {
		window int64
		rec    *dataset.Record
	}
	recs := store.Gather(dataset.Filter{RegionPrefix: region, From: start, To: end})
	bins := make([]binned, len(recs))
	for i, r := range recs {
		bins[i] = binned{int64(r.Time.Sub(start) / window), r}
	}
	slices.SortFunc(bins, func(a, b binned) int { return cmp.Compare(a.window, b.window) })
	var out []TimePoint
	cv := c.newCellValues()
	for w, from := int64(0), start; from.Before(end); w, from = w+1, from.Add(window) {
		to := from.Add(window)
		if to.After(end) {
			to = end
		}
		p := TimePoint{From: from, To: to, NoData: true}
		n := 0
		for ; n < len(bins) && bins[n].window == w; n++ {
			cv.add(c.Datasets, bins[n].rec)
		}
		if n > 0 {
			bins = bins[n:]
			score, err := c.scoreValues(cv)
			cv.reset()
			if err == nil {
				p.Score, p.NoData = score, false
			} else if !errors.Is(err, ErrNoUsableData) {
				return nil, fmt.Errorf("iqb: window %v: %w", from, err)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// scoreValues scores one scope's gathered cells under a validated
// configuration.
func (c Config) scoreValues(cv cellValues) (Score, error) {
	agg, err := c.aggregateValues(cv)
	if err != nil {
		return Score{}, err
	}
	return c.scoreAggregates(agg)
}

// HourBucket is one hour-of-day slice of a diurnal score profile.
type HourBucket struct {
	FromHour int   `json:"from_hour"` // inclusive
	ToHour   int   `json:"to_hour"`   // exclusive
	Records  int   `json:"records"`
	Score    Score `json:"score"`
	NoData   bool  `json:"no_data,omitempty"`
}

// ScoreByHourOfDay buckets a region's records into hour-of-day bands of
// the given width (which must divide 24) and scores each band — the
// "does evening congestion move the composite" view.
func (c Config) ScoreByHourOfDay(store *dataset.Store, region string, bandHours int) ([]HourBucket, error) {
	if bandHours <= 0 || 24%bandHours != 0 {
		return nil, fmt.Errorf("iqb: band width %d must divide 24", bandHours)
	}
	records := store.Select(dataset.Filter{RegionPrefix: region})
	buckets := make([]*dataset.Store, 24/bandHours)
	counts := make([]int, len(buckets))
	for i := range buckets {
		buckets[i] = dataset.NewStore()
	}
	for _, r := range records {
		b := r.Time.UTC().Hour() / bandHours
		if err := buckets[b].Add(r); err != nil {
			return nil, fmt.Errorf("iqb: bucketing record %s: %w", r.ID, err)
		}
		counts[b]++
	}
	out := make([]HourBucket, len(buckets))
	for i := range buckets {
		out[i] = HourBucket{FromHour: i * bandHours, ToHour: (i + 1) * bandHours, Records: counts[i]}
		score, err := c.ScoreRegion(buckets[i], region, time.Time{}, time.Time{})
		if errors.Is(err, ErrNoUsableData) {
			out[i].NoData = true
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("iqb: scoring hour band %d: %w", i, err)
		}
		out[i].Score = score
	}
	return out, nil
}
