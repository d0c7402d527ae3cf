package stats

import (
	"math"
	"testing"

	"iqb/internal/rng"
)

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// Perfect positive linear relation.
	ys := []float64{2, 4, 6, 8, 10}
	r, err := pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %v, %v, want 1", r, err)
	}
	// Perfect negative.
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", r)
	}
	// Independence: near zero on large noise samples.
	src := rng.New(1)
	a := make([]float64, 20000)
	b := make([]float64, 20000)
	for i := range a {
		a[i] = src.Normal(0, 1)
		b[i] = src.Normal(0, 1)
	}
	r, _ = pearson(a, b)
	if math.Abs(r) > 0.03 {
		t.Errorf("independent Pearson = %v, want ~0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair should error")
	}
	if _, err := pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("constant sample should error")
	}
}

func TestSpearman(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// Monotone but nonlinear: Spearman 1, Pearson < 1.
	ys := []float64{1, 8, 27, 64, 125}
	rho, err := Spearman(xs, ys)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Errorf("Spearman = %v, %v, want 1", rho, err)
	}
	pr, _ := pearson(xs, ys)
	if pr >= 1 {
		t.Errorf("Pearson on cubic = %v, should be < 1", pr)
	}
	// Reversed order.
	rev := []float64{5, 4, 3, 2, 1}
	rho, _ = Spearman(xs, rev)
	if math.Abs(rho+1) > 1e-12 {
		t.Errorf("Spearman = %v, want -1", rho)
	}
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestRanksTies(t *testing.T) {
	got := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKSStatisticIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	d, err := KSStatistic(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("KS of identical samples = %v, want 0", d)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{10, 11, 12}
	d, err := KSStatistic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSStatisticShifted(t *testing.T) {
	src := rng.New(7)
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	c := make([]float64, 5000)
	for i := range a {
		a[i] = src.Normal(0, 1)
		b[i] = src.Normal(0, 1)
		c[i] = src.Normal(1, 1) // shifted by one sigma
	}
	same, _ := KSStatistic(a, b)
	diff, _ := KSStatistic(a, c)
	if same > 0.05 {
		t.Errorf("same-distribution KS = %v, expected small", same)
	}
	// KS of two normals one sigma apart is ~0.38.
	if diff < 0.3 {
		t.Errorf("shifted KS = %v, expected ~0.38", diff)
	}
	// A clearly tiny statistic is never significant at these sizes (the
	// empirical `same` value sits near the 5% critical line by design,
	// so it is not a stable assertion target).
	if KSSignificant(0.005, len(a), len(b)) {
		t.Error("tiny KS statistic should not be significant")
	}
	if !KSSignificant(diff, len(a), len(c)) {
		t.Error("shifted distribution should be significant")
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KSStatistic(nil, []float64{1}); err != ErrNoData {
		t.Error("empty first sample should be ErrNoData")
	}
	if _, err := KSStatistic([]float64{1}, nil); err != ErrNoData {
		t.Error("empty second sample should be ErrNoData")
	}
	if KSSignificant(1, 0, 5) {
		t.Error("zero-size sample can never be significant")
	}
}
