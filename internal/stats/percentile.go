// Package stats implements the statistical machinery the IQB framework
// aggregates measurements with: exact percentiles by linear
// interpolation (the framework mandates the 95th percentile), the
// DDSketch that the dataset cell index promotes large cells to, rank and
// distribution comparisons, and the mean.
//
// An exact percentile needs only the two order statistics it
// interpolates between, so Percentile copies its input and selects those
// in expected linear time instead of sorting. PercentileInPlace skips
// the copy for callers that own their slice, and reorders it. DDSketch keeps its bucket counts in a dense slice capped
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

// Percentile returns the q-th percentile (q in [0, 100]) of xs by
// linear interpolation between the adjacent order statistics
// (Hyndman-Fan type 7, the default of most statistics packages). xs need
// not be sorted; it is not modified.
func Percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	return PercentileInPlace(append([]float64(nil), xs...), q)
}

// PercentileInPlace is Percentile without the copy, for callers that
// own xs: it reorders xs. The answer is the one sorting xs would give,
// with NaNs ordered first as sort.Float64s orders them; only -0 and +0,
// which that order treats as equal, may swap.
func PercentileInPlace(xs []float64, q float64) (float64, error) {
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
	return a + frac*(b-a), nil
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

// Median is Percentile(xs, 50).
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

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
