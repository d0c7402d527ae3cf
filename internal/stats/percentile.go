// Package stats implements the statistical machinery the IQB framework
// aggregates measurements with: exact percentiles under several
// interpolation rules (the framework mandates the 95th percentile),
// streaming quantile estimators (DDSketch, P-square and t-digest) for
// pipelines that cannot hold raw samples, histograms, empirical CDFs,
// bootstrap confidence intervals, and descriptive summaries.
//
// An exact percentile needs only the one or two order statistics its
// interpolation rule reads, so Percentile and PercentileWith copy their
// input and select those in expected linear time instead of sorting.
// PercentileInPlace skips the copy for callers that own their slice, and
// reorders it. DDSketch keeps its bucket counts in a dense slice capped
// at a fixed bucket span; see its type documentation for how the cap
// folds the lowest buckets without losing order-independence.
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// ErrNoData is returned by aggregations over empty sample sets.
var ErrNoData = errors.New("stats: no data")

// Interpolation selects how a percentile between two order statistics is
// computed. The names follow the Hyndman & Fan taxonomy where applicable.
type Interpolation int

const (
	// Linear interpolates between the adjacent order statistics
	// (Hyndman-Fan type 7, the default of most statistics packages).
	Linear Interpolation = iota
	// Lower takes the largest order statistic below the position.
	Lower
	// Higher takes the smallest order statistic above the position.
	Higher
	// Nearest takes the closest order statistic.
	Nearest
	// Midpoint averages the two adjacent order statistics.
	Midpoint
)

// String names the interpolation rule.
func (ip Interpolation) String() string {
	switch ip {
	case Linear:
		return "linear"
	case Lower:
		return "lower"
	case Higher:
		return "higher"
	case Nearest:
		return "nearest"
	case Midpoint:
		return "midpoint"
	default:
		return fmt.Sprintf("Interpolation(%d)", int(ip))
	}
}

// Percentile returns the q-th percentile (q in [0, 100]) of xs using
// linear interpolation. xs need not be sorted; it is not modified.
func Percentile(xs []float64, q float64) (float64, error) {
	return PercentileWith(xs, q, Linear)
}

// PercentileWith is Percentile with an explicit interpolation rule.
func PercentileWith(xs []float64, q float64, ip Interpolation) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	return PercentileInPlace(append([]float64(nil), xs...), q, ip)
}

// PercentileInPlace is PercentileWith without the copy, for callers that
// own xs: it reorders xs. The answer is the one sorting xs would give,
// with NaNs ordered first as sort.Float64s orders them; only -0 and +0,
// which that order treats as equal, may swap.
func PercentileInPlace(xs []float64, q float64, ip Interpolation) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 100 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", q)
	}
	if len(xs) == 1 {
		return xs[0], nil
	}
	lo, hi, frac := rankOf(len(xs), q)
	selectKth(xs, lo)
	a, b := xs[lo], xs[lo]
	if hi > lo {
		// Selection left every value ranked above lo after it, so the next
		// order statistic is the least of them.
		b = xs[hi]
		for _, x := range xs[hi+1:] {
			if less(x, b) {
				b = x
			}
		}
	}
	return interpolate(a, b, frac, ip), nil
}

// PercentileSorted computes the q-th percentile of an already sorted
// slice without copying. It panics if xs is empty; callers that cannot
// guarantee data should use Percentile.
func PercentileSorted(xs []float64, q float64, ip Interpolation) float64 {
	if len(xs) == 0 {
		panic("stats: PercentileSorted on empty slice")
	}
	return percentileSorted(xs, q, ip)
}

func percentileSorted(sorted []float64, q float64, ip Interpolation) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	lo, hi, frac := rankOf(len(sorted), q)
	return interpolate(sorted[lo], sorted[hi], frac, ip)
}

// rankOf locates the q-th percentile (q in [0, 100]) of n > 1 sorted
// values: between order statistics lo and hi (0-based, lo <= hi <=
// lo+1), a fraction frac of the way from lo.
func rankOf(n int, q float64) (lo, hi int, frac float64) {
	pos := q / 100 * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi, pos - float64(lo)
}

// interpolate applies rule ip between the order statistics a (at lo)
// and b (at hi) located by rankOf.
func interpolate(a, b, frac float64, ip Interpolation) float64 {
	switch ip {
	case Lower:
		return a
	case Higher:
		return b
	case Nearest:
		if frac < 0.5 {
			return a
		}
		return b
	case Midpoint:
		return (a + b) / 2
	default: // Linear
		return a + frac*(b-a)
	}
}

// less is the order sort.Float64s sorts by: NaN before every number.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectKth reorders xs so that xs[k] holds the value sorting xs would
// put there, no value before it orders above it, and none after it
// orders below it. It partitions around a median-of-three pivot
// (Hoare/Wirth), in expected linear time; a range still unresolved after
// 2·log2(n) rounds is sorted outright, bounding the worst case at
// O(n log n).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); hi-lo > 16; rounds-- {
		if rounds == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if less(xs[mid], xs[lo]) {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for less(xs[i], p) {
				i++
			}
			for less(p, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] order no higher than p, xs[i..hi] no lower, and
		// anything strictly between j and i equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	// Insertion sort finishes a short range.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Percentiles computes several percentiles in one sort. The result is in
// the same order as qs.
func Percentiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 100 || math.IsNaN(q) {
			return nil, fmt.Errorf("stats: percentile %v out of [0,100]", q)
		}
		out[i] = percentileSorted(sorted, q, Linear)
	}
	return out, nil
}

// Median is Percentile(xs, 50).
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// Summary holds descriptive statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P5     float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	sum, sum2 := 0.0, 0.0
	for _, x := range sorted {
		sum += x
		sum2 += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sum2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P5:     percentileSorted(sorted, 5, Linear),
		P25:    percentileSorted(sorted, 25, Linear),
		Median: percentileSorted(sorted, 50, Linear),
		P75:    percentileSorted(sorted, 75, Linear),
		P90:    percentileSorted(sorted, 90, Linear),
		P95:    percentileSorted(sorted, 95, Linear),
		P99:    percentileSorted(sorted, 99, Linear),
	}, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	mean, _ := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs))), nil
}

// ECDF is an empirical cumulative distribution function over a fixed
// sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied and sorted).
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// At returns the fraction of samples <= x.
func (e *ECDF) At(x float64) float64 {
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (q in [0, 1]) via linear interpolation.
func (e *ECDF) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return percentileSorted(e.sorted, q*100, Linear)
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.sorted) }
