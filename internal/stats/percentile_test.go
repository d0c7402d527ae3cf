package stats

import (
	"math"
	"testing"
	"testing/quick"

	"iqb/internal/rng"
)

func TestPercentileBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{95, 9.55},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.q)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.q, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestPercentileUnsortedInputUnmodified(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got, err := Percentile(xs, 50)
	if err != nil || got != 3 {
		t.Errorf("median of shuffled 1..5 = %v (err %v), want 3", got, err)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("input slice was modified")
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrNoData {
		t.Errorf("empty input: err = %v, want ErrNoData", err)
	}
	for _, q := range []float64{-1, 101, math.NaN()} {
		if _, err := Percentile([]float64{1}, q); err == nil {
			t.Errorf("q=%v should error", q)
		}
	}
}

func TestPercentileSingle(t *testing.T) {
	for _, q := range []float64{0, 50, 95, 100} {
		got, err := Percentile([]float64{7}, q)
		if err != nil || got != 7 {
			t.Errorf("single-element percentile(%v) = %v, %v", q, got, err)
		}
	}
}

// Property: percentile is bounded by min and max and monotone in q.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, q1, q2 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Restrict to magnitudes a network metric could plausibly take;
			// interpolation across ±1e308 overflows by design.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := float64(q1) / 255 * 100
		qb := float64(q2) / 255 * 100
		if qa > qb {
			qa, qb = qb, qa
		}
		pa, err1 := Percentile(xs, qa)
		pb, err2 := Percentile(xs, qb)
		if err1 != nil || err2 != nil {
			return false
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return pa >= lo && pb <= hi && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanStddev(t *testing.T) {
	if _, err := Mean(nil); err != ErrNoData {
		t.Error("Mean(nil) should be ErrNoData")
	}
	m, _ := Mean([]float64{1, 2, 3})
	if m != 2 {
		t.Errorf("mean = %v", m)
	}
}

func BenchmarkPercentileExact10k(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Percentile(xs, 95)
	}
}
