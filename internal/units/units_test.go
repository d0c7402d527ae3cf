package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDirectionMeets(t *testing.T) {
	tests := []struct {
		dir        Direction
		value, thr float64
		want       bool
	}{
		{HigherBetter, 25, 25, true},
		{HigherBetter, 24.9, 25, false},
		{HigherBetter, 100, 25, true},
		{LowerBetter, 50, 50, true},
		{LowerBetter, 50.1, 50, false},
		{LowerBetter, 10, 50, true},
	}
	for _, tt := range tests {
		if got := tt.dir.Meets(tt.value, tt.thr); got != tt.want {
			t.Errorf("%v.Meets(%v, %v) = %v, want %v", tt.dir, tt.value, tt.thr, got, tt.want)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if HigherBetter.String() != "higher-better" || LowerBetter.String() != "lower-better" {
		t.Errorf("unexpected direction strings: %v %v", HigherBetter, LowerBetter)
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction should still format")
	}
}

func TestThroughputConversions(t *testing.T) {
	tp := 100 * Mbps
	if got := tp.BytesPerSecond(); got != 12.5e6 {
		t.Errorf("BytesPerSecond = %v, want 1.25e7", got)
	}
	if got := tp.Mbps(); got != 100 {
		t.Errorf("Mbps = %v, want 100", got)
	}
}

func TestThroughputString(t *testing.T) {
	tests := []struct {
		tp   Throughput
		want string
	}{
		{25, "25 Mbit/s"},
		{1500, "1.5 Gbit/s"},
		{0.5, "500 kbit/s"},
		{12.34, "12.34 Mbit/s"},
	}
	for _, tt := range tests {
		if got := tt.tp.String(); got != tt.want {
			t.Errorf("Throughput(%v).String() = %q, want %q", float64(tt.tp), got, tt.want)
		}
	}
}

func TestThroughputFromTransfer(t *testing.T) {
	got := ThroughputFromTransfer(12_500_000, time.Second)
	if math.Abs(got.Mbps()-100) > 1e-9 {
		t.Errorf("ThroughputFromTransfer = %v, want 100 Mbps", got)
	}
	if got := ThroughputFromTransfer(1, 0); got != 0 {
		t.Errorf("zero duration should yield 0, got %v", got)
	}
}

func TestThroughputRoundTrip(t *testing.T) {
	f := func(bytes uint32) bool {
		n := int64(bytes) + 1
		d := time.Duration(float64(n) / (50 * Mbps).BytesPerSecond() * float64(time.Second))
		back := ThroughputFromTransfer(n, d)
		return math.Abs(back.Mbps()-50) < 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatency(t *testing.T) {
	l := LatencyFromMillis(50)
	if l.Milliseconds() != 50 {
		t.Errorf("Milliseconds = %v, want 50", l.Milliseconds())
	}
	if l.Duration() != 50*time.Millisecond {
		t.Errorf("Duration = %v, want 50ms", l.Duration())
	}
	if got := l.String(); got != "50 ms" {
		t.Errorf("String = %q, want \"50 ms\"", got)
	}
}

func TestLossRate(t *testing.T) {
	r := LossRate(0.005)
	if r.Percent() != 0.5 {
		t.Errorf("Percent = %v, want 0.5", r.Percent())
	}
	if got := r.String(); got != "0.5%" {
		t.Errorf("String = %q, want \"0.5%%\"", got)
	}
	if !r.Valid() || LossRate(-0.1).Valid() || LossRate(1.1).Valid() {
		t.Error("Valid() range check failed")
	}
	if LossRate(math.NaN()).Valid() {
		t.Error("NaN loss should be invalid")
	}
}

func TestTrimZeros(t *testing.T) {
	tests := []struct{ in, want string }{
		{"25.00", "25"},
		{"1.50", "1.5"},
		{"100", "100"},
		{"0.001", "0.001"},
	}
	for _, tt := range tests {
		if got := trimZeros(tt.in); got != tt.want {
			t.Errorf("trimZeros(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
