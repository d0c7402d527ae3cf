package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The two kernels behind every exact and sketched percentile: selection
// for PercentileWith and the dense bucket store for DDSketch. Each is
// checked against the simplest implementation of the same answer — a
// full sort, and a map of bucket counts built from the whole multiset.

// refPercentileWith is the sort-based PercentileWith the selection
// kernel replaced: copy, sort.Float64s, read the order statistics.
func refPercentileWith(xs []float64, q float64, ip Interpolation) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 100 || math.IsNaN(q) {
		return 0, ErrNoData // only the error-ness is compared
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 1 {
		return sorted[0], nil
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	frac := pos - float64(lo)
	switch ip {
	case Lower:
		return sorted[lo], nil
	case Higher:
		return sorted[hi], nil
	case Nearest:
		if frac < 0.5 {
			return sorted[lo], nil
		}
		return sorted[hi], nil
	case Midpoint:
		return (sorted[lo] + sorted[hi]) / 2, nil
	default:
		return sorted[lo] + frac*(sorted[hi]-sorted[lo]), nil
	}
}

var allRules = []Interpolation{Linear, Lower, Higher, Nearest, Midpoint}

// checkSelectMatchesSort compares PercentileWith with the sort-based
// reference bit for bit. The one licence: -0 and +0, which the sort
// order treats as equal, may trade places, so a zero answer may carry
// either sign.
func checkSelectMatchesSort(t *testing.T, xs []float64, q float64, ip Interpolation) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	want, werr := refPercentileWith(xs, q, ip)
	got, gerr := PercentileWith(xs, q, ip)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("n=%d q=%v %v: error %v, reference error %v", len(xs), q, ip, gerr, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) && !(got == 0 && want == 0) {
		t.Fatalf("n=%d q=%v %v: select %v (%#x), sort %v (%#x); input %v",
			len(xs), q, ip, got, math.Float64bits(got), want, math.Float64bits(want), xs)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("PercentileWith modified its input at %d", i)
		}
	}
}

// percentileInputs generates the shapes a selection kernel gets wrong:
// duplicates, zeros of both signs, NaNs, n=1, presorted and reversed
// runs, organ pipes, and plain random data.
func percentileInputs(src *rand.Rand) [][]float64 {
	var out [][]float64
	for _, n := range []int{1, 2, 3, 5, 16, 17, 18, 33, 100, 257, 1000, 4099} {
		random := make([]float64, n)
		dups := make([]float64, n)
		zeros := make([]float64, n)
		nans := make([]float64, n)
		pipe := make([]float64, n)
		for i := range random {
			random[i] = math.Exp(src.NormFloat64() * 2)
			dups[i] = float64(src.Intn(4))
			switch src.Intn(3) {
			case 0:
				zeros[i] = math.Copysign(0, -1)
			case 1:
				zeros[i] = 0
			default:
				zeros[i] = float64(src.Intn(3))
			}
			nans[i] = src.NormFloat64()
			if src.Intn(4) == 0 {
				nans[i] = math.NaN()
			}
			pipe[i] = float64(min(i, n-1-i))
		}
		sorted := append([]float64(nil), random...)
		sort.Float64s(sorted)
		reversed := append([]float64(nil), sorted...)
		slices.Reverse(reversed)
		out = append(out, random, dups, zeros, nans, pipe, sorted, reversed)
	}
	return out
}

func TestPercentileSelectMatchesSort(t *testing.T) {
	src := rand.New(rand.NewSource(21))
	for _, xs := range percentileInputs(src) {
		qs := []float64{0, 50, 95, 100, src.Float64() * 100, 5, 99.9}
		for _, q := range qs {
			for _, ip := range allRules {
				checkSelectMatchesSort(t, xs, q, ip)
			}
		}
	}
}

func TestPercentileInPlaceReorders(t *testing.T) {
	src := rand.New(rand.NewSource(22))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = src.NormFloat64()
	}
	want, _ := PercentileWith(xs, 95, Linear)
	own := append([]float64(nil), xs...)
	got, err := PercentileInPlace(own, 95, Linear)
	if err != nil || got != want {
		t.Fatalf("PercentileInPlace = %v, %v; want %v", got, err, want)
	}
	// It may reorder its input, but keeps the multiset.
	sort.Float64s(own)
	sort.Float64s(xs)
	if !slices.Equal(own, xs) {
		t.Fatal("PercentileInPlace changed the values of its input, not just their order")
	}
	if _, err := PercentileInPlace(nil, 50, Linear); err != ErrNoData {
		t.Errorf("empty input: err = %v, want ErrNoData", err)
	}
	if _, err := PercentileInPlace([]float64{1}, 101, Linear); err == nil {
		t.Error("q=101 should error")
	}
}

// fuzzValues decodes each byte into a value drawn from a small alphabet
// rich in ties and special values, so short inputs reach duplicates,
// signed zeros, infinities and NaN.
func fuzzValues(data []byte) []float64 {
	xs := make([]float64, len(data))
	for i, b := range data {
		switch b % 8 {
		case 0:
			xs[i] = math.NaN()
		case 1:
			xs[i] = 0
		case 2:
			xs[i] = math.Copysign(0, -1)
		case 3:
			xs[i] = math.Inf(int(b%16) - 4)
		default:
			xs[i] = float64(int8(b)) / 4
		}
	}
	return xs
}

func FuzzPercentileSelect(f *testing.F) {
	f.Add([]byte{4, 5, 6, 7}, 95.0, uint8(0))
	f.Add([]byte{0, 12, 1, 2, 200, 201, 202}, 50.0, uint8(3))
	f.Add([]byte{9}, 100.0, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, q float64, rule uint8) {
		xs := fuzzValues(data)
		checkSelectMatchesSort(t, xs, q, allRules[int(rule)%len(allRules)])
	})
}

// refDD is the map-backed DDSketch the dense store replaced, built from
// a whole multiset at once so it applies the span cap by definition: a
// value's bucket is max(index, top-ddMaxBins+1), where top is the
// highest index in the multiset.
type refDD struct {
	bins     map[int]uint64
	zeros, n uint64
	min, max float64
	gamma    float64
	lnGamma  float64
}

func newRefDD(alpha float64, xs []float64) *refDD {
	gamma := (1 + alpha) / (1 - alpha)
	r := &refDD{bins: map[int]uint64{}, min: math.Inf(1), max: math.Inf(-1), gamma: gamma, lnGamma: math.Log(gamma)}
	var idx []int
	top := math.MinInt
	for _, x := range xs {
		if math.IsNaN(x) || x < 0 {
			continue
		}
		r.n++
		r.min, r.max = math.Min(r.min, x), math.Max(r.max, x)
		if x < ddMinIndexable {
			r.zeros++
			continue
		}
		i := int(math.Ceil(math.Log(x) / r.lnGamma))
		idx = append(idx, i)
		top = max(top, i)
	}
	for _, i := range idx {
		r.bins[max(i, top-ddMaxBins+1)]++
	}
	return r
}

func (r *refDD) quantile(q float64) float64 {
	if q == 0 {
		return r.min
	}
	if q == 1 {
		return r.max
	}
	rank := q * float64(r.n-1)
	cum := float64(r.zeros)
	if rank < cum {
		return 0
	}
	keys := make([]int, 0, len(r.bins))
	for i := range r.bins {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		cum += float64(r.bins[i])
		if rank < cum {
			v := 2 * math.Pow(r.gamma, float64(i)) / (r.gamma + 1)
			return math.Min(math.Max(v, r.min), r.max)
		}
	}
	return r.max
}

// buildMergeTree spreads xs over k sketches, each fed in its own
// shuffled order, then joins them pairwise in random order.
func buildMergeTree(t *testing.T, src *rand.Rand, alpha float64, xs []float64, k int) *DDSketch {
	t.Helper()
	parts := make([]*DDSketch, k)
	for i := range parts {
		parts[i] = NewDDSketch(alpha)
	}
	for _, i := range src.Perm(len(xs)) {
		parts[src.Intn(k)].Add(xs[i])
	}
	return mergeRandomly(t, src, parts)
}

// mergeRandomly joins parts pairwise in random order and returns the
// last one standing.
func mergeRandomly(t *testing.T, src *rand.Rand, parts []*DDSketch) *DDSketch {
	t.Helper()
	for len(parts) > 1 {
		i, j := src.Intn(len(parts)), src.Intn(len(parts)-1)
		if j >= i {
			j++
		}
		if err := parts[i].Merge(parts[j]); err != nil {
			t.Fatal(err)
		}
		parts = append(parts[:j], parts[j+1:]...)
	}
	return parts[0]
}

func checkSketchMatchesRef(t *testing.T, d *DDSketch, ref *refDD, label string) {
	t.Helper()
	if d.Count() != float64(ref.n) {
		t.Fatalf("%s: Count %v, reference %d", label, d.Count(), ref.n)
	}
	if d.BinCount() != len(ref.bins) {
		t.Fatalf("%s: BinCount %d, reference %d", label, d.BinCount(), len(ref.bins))
	}
	if len(d.bins) > ddMaxBins {
		t.Fatalf("%s: %d buckets allocated, cap %d", label, len(d.bins), ddMaxBins)
	}
	for q := 0.0; q <= 1; q += 1.0 / 64 {
		got, err := d.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: q=%v: dense %v, reference %v", label, q, got, want)
		}
	}
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		got, _ := d.Quantile(q)
		if want := ref.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: q=%v: dense %v, reference %v", label, q, got, want)
		}
	}
}

func TestDDSketchDenseMatchesMapReference(t *testing.T) {
	src := rand.New(rand.NewSource(31))
	shapes := map[string]func() float64{
		"lognormal": func() float64 { return math.Exp(src.NormFloat64()*2 + 3) },
		"loss": func() float64 {
			if src.Intn(3) == 0 {
				return 0
			}
			return src.Float64() * 0.05
		},
		"drift":  func() float64 { return math.Exp(src.Float64() * 14) },
		"narrow": func() float64 { return 100 + src.Float64() },
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, n := range []int{1, 2, 50, 3000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shapes[name]()
			}
			for _, alpha := range []float64{0.005, 0.02} {
				ref := newRefDD(alpha, xs)
				seq := NewDDSketch(alpha)
				for _, x := range xs {
					seq.Add(x)
				}
				checkSketchMatchesRef(t, seq, ref, name+"/sequential")
				for trial := 0; trial < 4; trial++ {
					k := 1 + src.Intn(9)
					checkSketchMatchesRef(t, buildMergeTree(t, src, alpha, xs, k), ref, name+"/tree")
				}
			}
		}
	}
}

// TestDDSketchHostileSpan: values at 1e-8 and 1e300 span ~71k buckets at
// the default alpha. The sketch stays within the cap and answers the same
// for every insertion order and merge split.
func TestDDSketchHostileSpan(t *testing.T) {
	src := rand.New(rand.NewSource(41))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1e-8
		if i%2 == 1 {
			xs[i] = 1e300
		}
	}
	// A spread of values in between exercises folding of occupied
	// buckets, not just of the lowest one.
	for i := 0; i < 200; i++ {
		xs = append(xs, math.Exp(src.Float64()*700-20))
	}
	ref := newRefDD(DefaultDDSketchAlpha, xs)
	fwd := NewDDSketch(DefaultDDSketchAlpha)
	for _, x := range xs {
		fwd.Add(x)
	}
	checkSketchMatchesRef(t, fwd, ref, "forward")
	rev := NewDDSketch(DefaultDDSketchAlpha)
	for i := len(xs) - 1; i >= 0; i-- {
		rev.Add(xs[i])
	}
	checkSketchMatchesRef(t, rev, ref, "reverse")
	for trial := 0; trial < 8; trial++ {
		checkSketchMatchesRef(t, buildMergeTree(t, src, DefaultDDSketchAlpha, xs, 2+src.Intn(7)), ref, "tree")
	}
	// Split by value instead, so sketches holding only low values merge
	// into ones whose top puts all of them below the floor, and the other
	// way round.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for trial := 0; trial < 8; trial++ {
		parts := make([]*DDSketch, 2+src.Intn(7))
		for i := range parts {
			parts[i] = NewDDSketch(DefaultDDSketchAlpha)
			for _, x := range sorted[i*len(sorted)/len(parts) : (i+1)*len(sorted)/len(parts)] {
				parts[i].Add(x)
			}
		}
		checkSketchMatchesRef(t, mergeRandomly(t, src, parts), ref, "value split")
	}
	if n := fwd.BinCount(); n > ddMaxBins {
		t.Errorf("BinCount %d past the cap %d", n, ddMaxBins)
	}
}

// BenchmarkDDSketchMergeQuantile measures the sketch read path of a
// promoted region score: merge a dozen cell sketches into a fresh one and
// read its 95th percentile.
func BenchmarkDDSketchMergeQuantile(b *testing.B) {
	src := rand.New(rand.NewSource(51))
	cells := make([]*DDSketch, 12)
	for i := range cells {
		cells[i] = NewDDSketch(DefaultDDSketchAlpha)
		for j := 0; j < 2000; j++ {
			cells[i].Add(math.Exp(src.NormFloat64()*0.8 + 4))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewDDSketch(DefaultDDSketchAlpha)
		for _, c := range cells {
			if err := acc.Merge(c); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := acc.Quantile(0.95); err != nil {
			b.Fatal(err)
		}
	}
}
