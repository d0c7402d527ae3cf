package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent seeds produced %d identical draws of 1000", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("seed 0 produced repeats: %d unique of 100", len(seen))
	}
}

func TestFork(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork("netem")
	c2 := parent.Fork("geo")
	if c1.Uint64() == c2.Uint64() {
		t.Error("differently tagged forks should differ")
	}
	// Forks with the same tag from identically seeded parents agree.
	p1, p2 := New(7), New(7)
	f1, f2 := p1.Fork("x"), p2.Fork("x")
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatal("same-tag forks of same-seed parents diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	s := New(5)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[s.Intn(10)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(10) bucket %d has %d of 10000, want ~1000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestBool(t *testing.T) {
	s := New(6)
	if s.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", p)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(8)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(sd-3) > 0.05 {
		t.Errorf("normal stddev = %v, want ~3", sd)
	}
}

func TestLogNormalFromMoments(t *testing.T) {
	s := New(9)
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.LogNormalFromMoments(100, 0.5)
		if v <= 0 {
			t.Fatal("log-normal must be positive")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-100) > 2 {
		t.Errorf("log-normal mean = %v, want ~100", mean)
	}
	if v := s.LogNormalFromMoments(0, 0.5); v != 0 {
		t.Errorf("non-positive mean should yield 0, got %v", v)
	}
	if v := s.LogNormalFromMoments(50, 0); v != 50 {
		t.Errorf("zero cv should return the mean, got %v", v)
	}
}

func TestExponential(t *testing.T) {
	s := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exponential(5)
		if v < 0 {
			t.Fatal("exponential must be non-negative")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Errorf("exponential mean = %v, want ~5", mean)
	}
	if s.Exponential(0) != 0 {
		t.Error("zero mean should yield 0")
	}
}

func TestPoisson(t *testing.T) {
	s := New(13)
	for _, mean := range []float64{0.5, 4, 50} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			v := s.Poisson(mean)
			if v < 0 {
				t.Fatal("Poisson must be non-negative")
			}
			sum += v
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if s.Poisson(0) != 0 {
		t.Error("Poisson(0) must be 0")
	}
}

func TestCategorical(t *testing.T) {
	s := New(14)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[1])
	}
	if p := float64(counts[2]) / n; math.Abs(p-0.75) > 0.02 {
		t.Errorf("bucket 2 rate = %v, want ~0.75", p)
	}
	// All-zero weights fall back to uniform.
	z := s.Categorical([]float64{0, 0})
	if z != 0 && z != 1 {
		t.Errorf("uniform fallback out of range: %d", z)
	}
}

func TestCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Categorical(nil) should panic")
		}
	}()
	New(1).Categorical(nil)
}

func TestShuffle(t *testing.T) {
	s := New(15)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}

func TestRange(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 7)
		if v < 5 || v >= 7 {
			t.Fatalf("Range out of [5,7): %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}
