package main

import (
	"math"
	"regexp"
	"slices"
)

// minBeyond is how many samples must lie past a tail percentile before
// the benchmark reports it: fewer, and one outlier moves the value.
const minBeyond = 10

// tailQuantiles are the tail candidates, highest first; a report uses
// the first one the sample supports.
var tailQuantiles = []float64{0.99, 0.90}

// nearestRank is the 0-based index of the q-quantile in a sorted sample
// of n values: ⌈q·n⌉−1, clamped to the sample. The small epsilon keeps
// products such as 0.99·100, which float64 rounds to just above 99, on
// the rank they name.
func nearestRank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return max(0, min(i, n-1))
}

// tailSupported reports whether at least minBeyond of n samples lie past
// the q-quantile.
func tailSupported(q float64, n int) bool {
	return n > 0 && n-1-nearestRank(q, n) >= minBeyond
}

// tailQuantile is the highest of tailQuantiles that n samples support,
// or 0.5 when none is.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if tailSupported(q, n) {
			return q
		}
	}
	return 0.5
}

// dist is a sample of one quantity, sorted once before it is read.
type dist []float64

func (d dist) sorted() dist {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// q is the nearest-rank q-quantile of a sorted sample; 0 when empty.
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[nearestRank(q, len(d))]
}

// qIfSupported is d.q(q) when the sample supports that tail, else 0.
func (d dist) qIfSupported(q float64) float64 {
	if !tailSupported(q, len(d)) {
		return 0
	}
	return d.q(q)
}

// median of a small unsorted sample (set-up and restart times).
func median(vs []float64) float64 {
	return dist(vs).sorted().q(0.5)
}

// metricName is the grammar every reported metric name obeys.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
