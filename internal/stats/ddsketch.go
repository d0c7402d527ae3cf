package stats

import (
	"fmt"
	"math"
)

// DDSketch is a mergeable streaming quantile sketch with a relative-error
// guarantee (Masson, Lee & Rim, VLDB 2019): every returned quantile is
// within a factor (1±alpha) of an exact order statistic. Values map to
// geometrically sized buckets indexed by ceil(log_gamma(x)) with
// gamma = (1+alpha)/(1-alpha), and the sketch stores only bucket counts.
//
// A DDSketch is a pure counting structure: the state built from a
// multiset of values is identical no matter how insertions or merges were
// interleaved, unlike centroid sketches such as the t-digest. That
// order-independence is why the dataset cell index promotes its large
// cells to it — quantiles served from sketches stay bit-identical across
// pipeline worker counts, preserving the documented determinism
// contract.
//
// # Dense store
//
// The counts live in one dense slice over a contiguous bucket-index
// range, as in the reference design: Add is an index increment, Merge
// adds the other sketch's range into this one, and Quantile is a single
// ascending walk. The range grows with headroom, so a sketch whose values
// drift outward reallocates a logarithmic number of times, not per new
// extreme.
//
// The range never spans more than ddMaxBins buckets. When a new top
// bucket would stretch it further, the buckets below top-ddMaxBins+1
// fold into that lowest kept bucket, and later values that low land
// there too. A value's final bucket is therefore max(index,
// top-ddMaxBins+1), where top is the highest bucket of the whole
// multiset, so the folded state is still the same for every insertion
// order and merge tree. Folding only coarsens the lowest quantiles of a
// sketch whose values span a ratio above ~6e17 (at the default alpha);
// without it one pair of values at 1e-8 and 1e300 would cost a single
// cell ~600 KB.
//
// Only non-negative values are accepted (all IQB metrics are
// non-negative); values indistinguishable from zero are counted in a
// dedicated zero bucket.
type DDSketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64
	// bins[i] counts bucket offset+i; top is the highest occupied bucket,
	// meaningful once bins is non-empty.
	bins     []uint64
	offset   int
	top      int
	zeros    uint64
	n        uint64
	min, max float64
}

// ddMinIndexable is the smallest value with its own log bucket; anything
// below it is treated as zero. Loss fractions at measurement resolution
// sit far above this.
const ddMinIndexable = 1e-9

// ddMaxBins caps the bucket range of one sketch. At the default alpha it
// covers a value ratio of about 6e17; no metric here spans more than
// 1e7.
const ddMaxBins = 4096

// ddMinGrow is the smallest number of buckets a sketch allocates at a
// time.
const ddMinGrow = 64

// DefaultDDSketchAlpha is the relative accuracy used when none is given:
// 0.5% error, a few hundred buckets over the dynamic range of network
// metrics.
const DefaultDDSketchAlpha = 0.005

// NewDDSketch returns a sketch with relative accuracy alpha in (0, 1).
// Values outside that range fall back to DefaultDDSketchAlpha.
func NewDDSketch(alpha float64) *DDSketch {
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		alpha = DefaultDDSketchAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &DDSketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Alpha returns the relative-accuracy parameter.
func (d *DDSketch) Alpha() float64 { return d.alpha }

// Add observes x. NaN and negative values are ignored.
func (d *DDSketch) Add(x float64) {
	if math.IsNaN(x) || x < 0 {
		return
	}
	d.n++
	if x < d.min {
		d.min = x
	}
	if x > d.max {
		d.max = x
	}
	if x < ddMinIndexable {
		d.zeros++
		return
	}
	i := d.index(min(x, math.MaxFloat64))
	if i < d.offset || i >= d.offset+len(d.bins) {
		i = d.reserve(i, i)
	} else if i > d.top {
		d.top = i
	}
	d.bins[i-d.offset]++
}

func (d *DDSketch) index(x float64) int {
	return int(math.Ceil(math.Log(x) / d.lnGamma))
}

// value is the representative of bucket i: the point at most a factor
// (1+alpha) away from every member of the bucket.
func (d *DDSketch) value(i int) float64 {
	return 2 * math.Pow(d.gamma, float64(i)) / (d.gamma + 1)
}

// floor is the lowest bucket the span cap keeps below top.
func (d *DDSketch) floor() int { return d.top - ddMaxBins + 1 }

// reserve makes the buckets lo..hi (lo <= hi) countable, raising top to
// hi if it is higher, folding whatever the cap no longer keeps into the
// floor bucket and growing the store with headroom in the direction it
// grew. It returns the bucket that counts lo: lo itself, or the floor if
// lo lies below it.
func (d *DDSketch) reserve(lo, hi int) int {
	if len(d.bins) == 0 {
		d.top = hi
		if lo < d.floor() {
			lo = d.floor()
		}
		pad := (ddMinGrow - (hi - lo + 1)) / 2
		if pad < 0 {
			pad = 0
		}
		d.offset = max(lo-pad, d.floor())
		d.bins = make([]uint64, min(hi+pad, d.offset+ddMaxBins-1)-d.offset+1)
		return lo
	}
	if hi > d.top {
		d.top = hi
	}
	floor := d.floor()
	if lo < floor {
		lo = floor
	}
	curLo, curHi := d.offset, d.offset+len(d.bins)-1
	if lo >= curLo && hi <= curHi {
		// Already countable. If top moved, it moved within a range no
		// wider than the cap, which leaves nothing below the new floor.
		return lo
	}
	pad := max(len(d.bins), ddMinGrow)
	newLo, newHi := max(curLo, floor), curHi
	if lo < newLo {
		newLo = max(lo-pad, floor)
	}
	if hi > newHi {
		newHi = hi + pad
	}
	if newHi-newLo+1 > ddMaxBins {
		// The kept buckets always fit: newLo >= floor = top-ddMaxBins+1,
		// so only headroom above top is trimmed.
		newHi = newLo + ddMaxBins - 1
	}
	bins := make([]uint64, newHi-newLo+1)
	for j, c := range d.bins {
		if c != 0 {
			bins[max(curLo+j, floor)-newLo] += c
		}
	}
	d.bins, d.offset = bins, newLo
	return lo
}

// Count returns the number of observed values.
func (d *DDSketch) Count() float64 { return float64(d.n) }

// BinCount reports the number of occupied buckets (for tests and memory
// accounting).
func (d *DDSketch) BinCount() int {
	n := 0
	for _, c := range d.bins {
		if c != 0 {
			n++
		}
	}
	return n
}

// Merge folds other into d; other is unchanged. Both sketches must share
// the same alpha, so their bucket boundaries line up exactly and the
// merge is a plain count addition over other's bucket range.
func (d *DDSketch) Merge(other *DDSketch) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other.alpha != d.alpha {
		return fmt.Errorf("stats: merging ddsketches with different alpha (%v vs %v)", d.alpha, other.alpha)
	}
	if ob := other.bins; len(ob) > 0 {
		first := 0
		for ob[first] == 0 {
			first++
		}
		ob = ob[first : other.top-other.offset+1]
		lo := other.offset + first
		at := d.reserve(lo, other.top)
		// Buckets of other below d's floor all land on the floor bucket
		// at; the rest line up one to one from at upward.
		skip := min(at-lo, len(ob))
		dst := d.bins[at-d.offset:]
		for _, c := range ob[:skip] {
			dst[0] += c
		}
		for j, c := range ob[skip:] {
			dst[j] += c
		}
	}
	d.zeros += other.zeros
	d.n += other.n
	if other.min < d.min {
		d.min = other.min
	}
	if other.max > d.max {
		d.max = other.max
	}
	return nil
}

// Quantile returns the estimated q-quantile (q in [0, 1]). The rank
// convention matches Percentile's Hyndman-Fan type 7 at the extremes:
// q=0 returns the exact minimum and q=1 the exact maximum.
func (d *DDSketch) Quantile(q float64) (float64, error) {
	if d.n == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	if q == 0 {
		return d.min, nil
	}
	if q == 1 {
		return d.max, nil
	}
	rank := q * float64(d.n-1)
	cum := float64(d.zeros)
	if rank < cum {
		return 0, nil
	}
	for j, c := range d.bins {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if rank < cum {
			v := d.value(d.offset + j)
			if v < d.min {
				v = d.min
			}
			if v > d.max {
				v = d.max
			}
			return v, nil
		}
	}
	return d.max, nil
}
