package iqb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"iqb/internal/dataset"
)

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
		row    *dataset.Row
	}
	v := store.Gather(dataset.Filter{RegionPrefix: region, From: start, To: end}, c.names())
	bins := make([]binned, len(v.Rows))
	for i, r := range v.Rows {
		bins[i] = binned{int64(r.Time().Sub(start) / window), r}
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
			c.add(cv, v.DatasetIndex(bins[n].row), bins[n].row)
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
// "does evening congestion move the composite" view. Bands without
// usable data are marked NoData rather than failing the profile.
//
// Like ScoreWindows, it reads the region's records from the store once
// and scores each band exactly through one reused set of cells: for
// records that all fall on one UTC day, band i equals point i of
// ScoreWindows over that day in windows of bandHours.
func (c Config) ScoreByHourOfDay(store *dataset.Store, region string, bandHours int) ([]HourBucket, error) {
	if bandHours <= 0 || 24%bandHours != 0 {
		return nil, fmt.Errorf("iqb: band width %d must divide 24", bandHours)
	}
	if store == nil {
		return nil, fmt.Errorf("iqb: nil store")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	bands := make([][]*dataset.Row, 24/bandHours)
	v := store.Gather(dataset.Filter{RegionPrefix: region}, c.names())
	for _, r := range v.Rows {
		b := r.Time().Hour() / bandHours
		bands[b] = append(bands[b], r)
	}
	out := make([]HourBucket, len(bands))
	cv := c.newCellValues()
	for i, rows := range bands {
		out[i] = HourBucket{FromHour: i * bandHours, ToHour: (i + 1) * bandHours, Records: len(rows), NoData: true}
		for _, r := range rows {
			c.add(cv, v.DatasetIndex(r), r)
		}
		score, err := c.scoreValues(cv)
		cv.reset()
		if err == nil {
			out[i].Score, out[i].NoData = score, false
		} else if !errors.Is(err, ErrNoUsableData) {
			return nil, fmt.Errorf("iqb: scoring hour band %d: %w", i, err)
		}
	}
	return out, nil
}
