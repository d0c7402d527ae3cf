// Package units defines the typed physical quantities the IQB framework
// measures and compares: throughput in megabits per second, round-trip
// latency in milliseconds, and packet loss as a fraction.
//
// Each quantity knows its comparison direction (whether larger values are
// better), so threshold checks elsewhere in the tree never need to special
// case individual metrics.
package units

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Direction reports whether larger values of a metric indicate better
// network quality.
type Direction int

const (
	// HigherBetter marks metrics such as throughput where more is better.
	HigherBetter Direction = iota
	// LowerBetter marks metrics such as latency and loss where less is better.
	LowerBetter
)

// String returns a human readable name for the direction.
func (d Direction) String() string {
	switch d {
	case HigherBetter:
		return "higher-better"
	case LowerBetter:
		return "lower-better"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Meets reports whether value satisfies threshold under this direction:
// value >= threshold for HigherBetter, value <= threshold for LowerBetter.
func (d Direction) Meets(value, threshold float64) bool {
	if d == HigherBetter {
		return value >= threshold
	}
	return value <= threshold
}

// Throughput is a data rate in megabits per second.
type Throughput float64

// Mbps is one megabit per second.
const Mbps Throughput = 1

// Mbps returns the rate as a float64 number of megabits per second.
func (t Throughput) Mbps() float64 { return float64(t) }

// BytesPerSecond returns the rate in bytes per second.
func (t Throughput) BytesPerSecond() float64 { return float64(t) * 1e6 / 8 }

// String formats the throughput with an adaptive unit.
func (t Throughput) String() string {
	switch {
	case math.Abs(float64(t)) >= 1000:
		return trimZeros(fmt.Sprintf("%.2f", float64(t)/1000)) + " Gbit/s"
	case math.Abs(float64(t)) >= 1:
		return trimZeros(fmt.Sprintf("%.2f", float64(t))) + " Mbit/s"
	default:
		return trimZeros(fmt.Sprintf("%.1f", float64(t)*1000)) + " kbit/s"
	}
}

// ThroughputFromTransfer computes the achieved rate for n bytes moved in d.
func ThroughputFromTransfer(n int64, d time.Duration) Throughput {
	if d <= 0 {
		return 0
	}
	return Throughput(float64(n) * 8 / d.Seconds() / 1e6)
}

// Latency is a round-trip time. It is a distinct type from time.Duration so
// that dataset records and thresholds cannot silently mix units; the zero
// value means "not measured".
type Latency time.Duration

// Common latency constants.
const (
	Millisecond Latency = Latency(time.Millisecond)
	Second      Latency = Latency(time.Second)
)

// Milliseconds returns the latency as a float64 number of milliseconds.
func (l Latency) Milliseconds() float64 {
	return float64(time.Duration(l)) / float64(time.Millisecond)
}

// Duration converts the latency back to a time.Duration.
func (l Latency) Duration() time.Duration { return time.Duration(l) }

// String formats the latency in milliseconds.
func (l Latency) String() string {
	return trimZeros(fmt.Sprintf("%.2f", l.Milliseconds())) + " ms"
}

// LatencyFromMillis builds a Latency from a float64 millisecond count.
func LatencyFromMillis(ms float64) Latency {
	return Latency(ms * float64(time.Millisecond))
}

// LossRate is a packet loss fraction in [0, 1].
type LossRate float64

// Percent returns the loss as a percentage in [0, 100].
func (r LossRate) Percent() float64 { return float64(r) * 100 }

// String formats the loss as a percentage.
func (r LossRate) String() string {
	return trimZeros(fmt.Sprintf("%.3f", r.Percent())) + "%"
}

// Valid reports whether the rate is within [0, 1].
func (r LossRate) Valid() bool { return r >= 0 && r <= 1 && !math.IsNaN(float64(r)) }

// trimZeros removes trailing fractional zeros ("25.00" -> "25",
// "1.50" -> "1.5") without touching integer parts.
func trimZeros(s string) string {
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
