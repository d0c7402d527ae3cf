package iqb

import (
	"errors"
	"fmt"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/rng"
	"iqb/internal/stats"
)

// ScoreCI is a composite score with a bootstrap confidence interval —
// the uncertainty a decision-maker should see next to any league table
// built from finite measurement samples.
type ScoreCI struct {
	Score Score   `json:"score"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
	// Resamples records how many bootstrap iterations produced the
	// interval, and Degenerate how many of them had no usable data.
	Resamples  int `json:"resamples"`
	Degenerate int `json:"degenerate,omitempty"`
}

// ScoreRegionCI scores a region and attaches a nonparametric bootstrap
// confidence interval: each resample redraws every (dataset,
// requirement) value vector with replacement, re-aggregates at the
// configured percentile, and rescores. Because the score is a sum of
// binary threshold checks, its sampling distribution is discrete; the
// interval honestly reflects that cells near their thresholds flip
// between resamples.
func (c Config) ScoreRegionCI(store *dataset.Store, region string, from, to time.Time, resamples int, level float64, src *rng.Source) (ScoreCI, error) {
	if resamples < 1 {
		return ScoreCI{}, fmt.Errorf("iqb: need >= 1 resample, got %d", resamples)
	}
	if level <= 0 || level >= 1 {
		return ScoreCI{}, fmt.Errorf("iqb: confidence level %v out of (0,1)", level)
	}
	if src == nil {
		src = rng.New(0)
	}
	point, err := c.ScoreRegion(store, region, from, to)
	if err != nil {
		return ScoreCI{}, err
	}

	// Pull each cell's raw values once.
	type cell struct {
		ds   string
		r    Requirement
		vals []float64
	}
	var cells []cell
	for _, d := range c.Datasets {
		for _, r := range d.Capabilities {
			f := dataset.Filter{
				Dataset:      d.Name,
				RegionPrefix: region,
				From:         from,
				To:           to,
				HasMetric:    []Requirement{r},
			}
			vals := store.Values(f, r)
			if len(vals) == 0 {
				continue
			}
			cells = append(cells, cell{ds: d.Name, r: r, vals: vals})
		}
	}

	estimates := make([]float64, 0, resamples)
	degenerate := 0
	for it := 0; it < resamples; it++ {
		agg := NewAggregates()
		for _, cl := range cells {
			sample := make([]float64, len(cl.vals))
			for i := range sample {
				sample[i] = cl.vals[src.Intn(len(cl.vals))]
			}
			p, err := stats.PercentileInPlace(sample, c.effectivePercentile(cl.r), stats.Linear)
			if err != nil {
				return ScoreCI{}, fmt.Errorf("iqb: bootstrap percentile: %w", err)
			}
			agg.Set(cl.ds, cl.r, p, len(sample))
		}
		s, err := c.ScoreAggregates(agg)
		if errors.Is(err, ErrNoUsableData) {
			degenerate++
			continue
		}
		if err != nil {
			return ScoreCI{}, err
		}
		estimates = append(estimates, s.IQB)
	}
	if len(estimates) == 0 {
		return ScoreCI{}, ErrNoUsableData
	}
	alpha := (1 - level) / 2
	bounds, err := stats.Percentiles(estimates, alpha*100, (1-alpha)*100)
	if err != nil {
		return ScoreCI{}, err
	}
	return ScoreCI{
		Score:      point,
		Lo:         bounds[0],
		Hi:         bounds[1],
		Level:      level,
		Resamples:  resamples,
		Degenerate: degenerate,
	}, nil
}
