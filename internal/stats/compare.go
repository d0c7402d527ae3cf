package stats

import (
	"fmt"
	"math"
	"sort"
)

// pearson returns the Pearson linear correlation coefficient of the
// paired samples xs and ys.
func pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: paired samples differ in length: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: correlation needs >= 2 pairs, got %d", len(xs))
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: correlation undefined for a constant sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns the Spearman rank correlation of the paired samples,
// which is what cross-dataset agreement checks should use: the datasets
// measure throughput differently, so only the orderings are comparable.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: paired samples differ in length: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: correlation needs >= 2 pairs, got %d", len(xs))
	}
	return pearson(ranks(xs), ranks(ys))
}

// KSStatistic returns the two-sample Kolmogorov-Smirnov statistic: the
// maximum distance between the empirical CDFs of xs and ys. It is the
// distribution-level disagreement measure between two datasets'
// measurements of the same population.
func KSStatistic(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrNoData
	}
	a := make([]float64, len(xs))
	copy(a, xs)
	sort.Float64s(a)
	b := make([]float64, len(ys))
	copy(b, ys)
	sort.Float64s(b)

	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Evaluate both empirical CDFs just past the next distinct value,
		// consuming ties from both samples together.
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d, nil
}

// KSSignificant reports whether the KS statistic rejects "same
// distribution" at alpha = 0.05 using the asymptotic two-sample critical
// value c(alpha)·sqrt((n+m)/(n·m)) with c(0.05) = 1.358.
func KSSignificant(d float64, n, m int) bool {
	if n == 0 || m == 0 {
		return false
	}
	critical := 1.358 * math.Sqrt(float64(n+m)/float64(n*m))
	return d > critical
}
