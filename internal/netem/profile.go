// Package netem emulates last-mile network paths so that the three
// measurement systems (NDT-style, Cloudflare-style, Ookla-style) have a
// shared ground truth to measure.
//
// A Tech describes an access technology class (fiber, cable, DSL, LTE,
// 5G fixed wireless, GEO satellite, WISP). A Profile holds that class's
// statistical parameters; DrawPath instantiates a concrete subscriber
// Path from a profile, and Path.Observe produces the instantaneous
// conditions (available capacity, RTT, loss) at a given utilization,
// including load-dependent queueing delay (bufferbloat) and congestion
// loss. The Diurnal curve maps time of day to neighborhood utilization.
package netem

import (
	"fmt"
	"math"

	"iqb/internal/geo"
	"iqb/internal/rng"
	"iqb/internal/units"
)

// Tech identifies an access technology class.
type Tech int

// Access technologies, roughly ordered from best to worst typical quality.
const (
	Fiber Tech = iota
	Cable
	FWA5G
	DSL
	LTE
	WISP
	SatGEO
	numTech
)

// String names the technology.
func (t Tech) String() string {
	switch t {
	case Fiber:
		return "fiber"
	case Cable:
		return "cable"
	case FWA5G:
		return "5g-fwa"
	case DSL:
		return "dsl"
	case LTE:
		return "lte"
	case WISP:
		return "wisp"
	case SatGEO:
		return "sat-geo"
	default:
		return fmt.Sprintf("Tech(%d)", int(t))
	}
}

// AllTechs returns every technology in declaration order.
func AllTechs() []Tech {
	out := make([]Tech, numTech)
	for i := range out {
		out[i] = Tech(i)
	}
	return out
}

// Profile holds the statistical parameters of a technology class. Rates
// are plan/peak rates; Observe applies load on top.
type Profile struct {
	Tech Tech
	// DownMbps/UpMbps are the mean subscribed rates; CV is the
	// log-normal coefficient of variation across subscribers.
	DownMbps float64
	UpMbps   float64
	RateCV   float64
	// BaseRTT is the idle round-trip to a nearby server; JitterMS is the
	// standard deviation of per-observation RTT noise.
	BaseRTTms float64
	JitterMS  float64
	// RandomLoss is the load-independent loss floor.
	RandomLoss units.LossRate
	// BloatMS scales the utilization-dependent queueing delay: an
	// M/M/1-style rho/(1-rho) term multiplied by this constant.
	BloatMS float64
	// Shared reflects how much neighborhood load erodes capacity
	// (1 = fully shared medium like cable/LTE, 0 = dedicated like fiber).
	Shared float64
}

// DefaultProfiles returns the built-in technology parameter table. The
// values follow published access-network characterizations: fiber
// symmetric and low-latency; cable fast down, slow up, bufferbloat-prone;
// DSL slow and distance-limited; LTE/5G variable and shared; GEO
// satellite capacity-decent but ~600 ms RTT.
func DefaultProfiles() map[Tech]Profile {
	return map[Tech]Profile{
		Fiber:  {Tech: Fiber, DownMbps: 600, UpMbps: 500, RateCV: 0.45, BaseRTTms: 8, JitterMS: 2, RandomLoss: 0.00002, BloatMS: 8, Shared: 0.1},
		Cable:  {Tech: Cable, DownMbps: 300, UpMbps: 25, RateCV: 0.55, BaseRTTms: 15, JitterMS: 5, RandomLoss: 0.0001, BloatMS: 60, Shared: 0.6},
		FWA5G:  {Tech: FWA5G, DownMbps: 200, UpMbps: 30, RateCV: 0.7, BaseRTTms: 25, JitterMS: 10, RandomLoss: 0.0005, BloatMS: 50, Shared: 0.8},
		DSL:    {Tech: DSL, DownMbps: 20, UpMbps: 3, RateCV: 0.6, BaseRTTms: 30, JitterMS: 8, RandomLoss: 0.001, BloatMS: 80, Shared: 0.3},
		LTE:    {Tech: LTE, DownMbps: 60, UpMbps: 15, RateCV: 0.8, BaseRTTms: 45, JitterMS: 18, RandomLoss: 0.002, BloatMS: 60, Shared: 0.9},
		WISP:   {Tech: WISP, DownMbps: 40, UpMbps: 8, RateCV: 0.7, BaseRTTms: 35, JitterMS: 12, RandomLoss: 0.003, BloatMS: 60, Shared: 0.7},
		SatGEO: {Tech: SatGEO, DownMbps: 80, UpMbps: 5, RateCV: 0.5, BaseRTTms: 610, JitterMS: 40, RandomLoss: 0.005, BloatMS: 120, Shared: 0.8},
	}
}

// TechMix is a distribution over technologies.
type TechMix map[Tech]float64

// DefaultMixFor returns the access-technology mix for a region character:
// urban areas are fiber/cable heavy, rural areas DSL/satellite heavy.
func DefaultMixFor(c geo.Character) TechMix {
	switch c {
	case geo.Urban:
		return TechMix{Fiber: 0.46, Cable: 0.42, FWA5G: 0.08, DSL: 0.02, LTE: 0.02}
	case geo.Suburban:
		return TechMix{Fiber: 0.30, Cable: 0.45, FWA5G: 0.10, DSL: 0.08, LTE: 0.04, WISP: 0.03}
	default: // Rural
		return TechMix{Fiber: 0.05, Cable: 0.15, DSL: 0.35, LTE: 0.15, WISP: 0.15, SatGEO: 0.15}
	}
}

// Draw picks a technology from the mix.
func (m TechMix) Draw(src *rng.Source) Tech {
	techs := AllTechs()
	weights := make([]float64, len(techs))
	for i, t := range techs {
		weights[i] = m[t]
	}
	return techs[src.Categorical(weights)]
}

// Validate checks the mix sums to ~1 with non-negative entries.
func (m TechMix) Validate() error {
	total := 0.0
	for t, w := range m {
		if w < 0 {
			return fmt.Errorf("netem: negative weight %v for %v", w, t)
		}
		total += w
	}
	if math.Abs(total-1) > 0.01 {
		return fmt.Errorf("netem: mix sums to %v, want 1", total)
	}
	return nil
}
