// Package rng provides a small deterministic random number generator and
// the distribution samplers the synthetic measurement substrate needs.
//
// The simulator must be reproducible across runs and platforms, so the
// package implements its own xoshiro256** generator seeded through
// splitmix64 rather than relying on math/rand's global state. Every
// component of the simulation derives an independent child stream from a
// parent via Fork, which keeps experiments stable when one component adds
// or removes draws.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo random generator.
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, so that nearby
// integer seeds still produce decorrelated streams.
func New(seed uint64) *Source {
	var s Source
	sm := seed
	for i := range s.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s.s[i] = z
	}
	// xoshiro must not start in the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

// Fork derives an independent child stream labelled by tag. Two forks of
// the same source with different tags are decorrelated; the parent's own
// stream is unaffected.
func (s *Source) Fork(tag string) *Source {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	return New(h ^ s.Uint64())
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (s *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// LogNormal returns a log-normally distributed value whose underlying
// normal has parameters mu and sigma.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalFromMoments returns a log-normal sample with the given
// arithmetic mean and coefficient of variation (stddev/mean). This is the
// natural parameterization for "typical throughput X with heavy right
// tail" access-network models.
func (s *Source) LogNormalFromMoments(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.LogNormal(mu, math.Sqrt(sigma2))
}

// Exponential returns an exponentially distributed value with the given
// mean (i.e. rate 1/mean).
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return -mean * math.Log(1-s.Float64())
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 30.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			return 0
		}
		return n
	}
	limit := math.Exp(-mean)
	p := 1.0
	n := 0
	for {
		p *= s.Float64()
		if p <= limit {
			return n
		}
		n++
	}
}

// Categorical draws an index from the unnormalized weights. It panics on
// empty weights and treats negative weights as zero. If all weights are
// zero it returns a uniform index.
func (s *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return s.Intn(len(weights))
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n elements using the provided swap function,
// with Fisher-Yates.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}
