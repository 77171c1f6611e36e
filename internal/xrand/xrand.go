// Package xrand provides a small, deterministic, allocation-free random
// number generator used to build reproducible initial conditions for
// molecular-dynamics experiments.
//
// The generator is SplitMix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). It passes BigCrush, has
// a 2^64 period, and — unlike math/rand's global source — carries no
// hidden global state, so two Sources seeded identically always produce
// identical streams regardless of what other code does. Every experiment
// in this repository derives its atoms' initial velocities from an
// explicit Source, which is what makes device-vs-reference physics
// validation meaningful.
package xrand

import "math"

// Source is a deterministic pseudorandom number generator. The zero
// value is a valid generator seeded with 0.
type Source struct {
	state uint64

	// Box-Muller produces normals in pairs; the spare is cached here.
	haveSpare bool
	spare     float64
}

// New returns a Source seeded with seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Seed resets the generator to the stream identified by seed and
// discards any cached normal variate.
func (s *Source) Seed(seed uint64) {
	s.state = seed
	s.haveSpare = false
	s.spare = 0
}

// Uint64 returns the next value in the stream, uniform over all 64-bit
// integers.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform value in [0, 1) with 24 bits of precision.
func (s *Source) Float32() float32 {
	return float32(s.Uint64()>>40) * (1.0 / (1 << 24))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, debiased.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + (t >> 32) + (a0*b1+t&mask32)>>32
	return hi, lo
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) via
// the Box-Muller transform. Variates are generated in pairs; the second
// of each pair is cached and returned by the next call.
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.spare = v * f
	s.haveSpare = true
	return u * f
}
