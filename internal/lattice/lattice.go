// Package lattice builds the initial conditions for the molecular-
// dynamics experiments: atoms placed on a regular lattice inside a cubic
// periodic box, with Maxwell-Boltzmann velocities at a target
// temperature and zero net momentum.
//
// Everything is produced in float64 and in reduced Lennard-Jones units
// (sigma = epsilon = mass = k_B = 1); devices that run in single
// precision narrow the same configuration, which keeps the physics
// cross-validation meaningful — every device starts from bit-identical
// (up to rounding) states.
package lattice

import (
	"fmt"
	"math"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// Kind selects the lattice geometry.
type Kind int

const (
	// SimpleCubic places one atom per unit cell. It is the layout the
	// paper's kernel-scale experiments use: nothing about the force
	// evaluation depends on crystalline order, only on atom count.
	SimpleCubic Kind = iota
	// FCC places four atoms per unit cell; it is the ground-state
	// packing of a Lennard-Jones solid and the conventional start for
	// production MD runs.
	FCC
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SimpleCubic:
		return "sc"
	case FCC:
		return "fcc"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes an initial condition.
type Config struct {
	N           int     // number of atoms (> 0)
	Density     float64 // reduced number density rho = N / L^3 (> 0)
	Temperature float64 // reduced temperature (>= 0)
	Kind        Kind
	Seed        uint64 // RNG stream for the velocities
}

// State is a generated initial condition.
type State struct {
	Box float64 // cubic box side length L
	Pos []vec.V3[float64]
	Vel []vec.V3[float64]
}

// BoxLength returns the side of the cubic box holding n atoms at the
// given reduced density.
func BoxLength(n int, density float64) float64 {
	return math.Cbrt(float64(n) / density)
}

// Generate builds the initial state for cfg. Positions are laid on the
// requested lattice (the first cfg.N sites of the smallest lattice that
// holds at least N atoms, rescaled to fill the box); velocities are
// Maxwell-Boltzmann at cfg.Temperature with the center-of-mass drift
// removed and then rescaled to hit the target temperature exactly.
func Generate(cfg Config) (*State, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("lattice: N must be positive, got %d", cfg.N)
	}
	// x-x is 0 for a finite x and NaN for NaN and ±Inf, so NaN fails
	// both checks.
	if !(cfg.Density > 0 && cfg.Density-cfg.Density == 0) {
		return nil, fmt.Errorf("lattice: density must be positive and finite, got %v", cfg.Density)
	}
	if !(cfg.Temperature >= 0 && cfg.Temperature-cfg.Temperature == 0) {
		return nil, fmt.Errorf("lattice: temperature must be non-negative and finite, got %v", cfg.Temperature)
	}
	box := BoxLength(cfg.N, cfg.Density)
	var pos []vec.V3[float64]
	switch cfg.Kind {
	case SimpleCubic:
		pos = simpleCubic(cfg.N, box)
	case FCC:
		pos = fcc(cfg.N, box)
	default:
		return nil, fmt.Errorf("lattice: unknown kind %v", cfg.Kind)
	}
	rng := xrand.New(cfg.Seed)
	vel := MaxwellVelocities(cfg.N, cfg.Temperature, rng)
	RemoveDrift(vel)
	ScaleToTemperature(vel, cfg.Temperature)
	return &State{Box: box, Pos: pos, Vel: vel}, nil
}

// simpleCubic returns the first n sites of the smallest m^3 cubic
// lattice with m^3 >= n, scaled to the box.
func simpleCubic(n int, box float64) []vec.V3[float64] {
	m := 1
	for m*m*m < n {
		m++
	}
	a := box / float64(m)
	pos := make([]vec.V3[float64], 0, n)
	for i := 0; i < m && len(pos) < n; i++ {
		for j := 0; j < m && len(pos) < n; j++ {
			for k := 0; k < m && len(pos) < n; k++ {
				pos = append(pos, vec.V3[float64]{
					X: (float64(i) + 0.5) * a,
					Y: (float64(j) + 0.5) * a,
					Z: (float64(k) + 0.5) * a,
				})
			}
		}
	}
	return pos
}

// fccBasis is the four-atom basis of the face-centered-cubic cell, in
// fractions of the cell edge.
var fccBasis = [4]vec.V3[float64]{
	{X: 0.25, Y: 0.25, Z: 0.25},
	{X: 0.75, Y: 0.75, Z: 0.25},
	{X: 0.75, Y: 0.25, Z: 0.75},
	{X: 0.25, Y: 0.75, Z: 0.75},
}

// fcc returns the first n sites of the smallest 4*m^3 FCC lattice with
// 4*m^3 >= n, scaled to the box.
func fcc(n int, box float64) []vec.V3[float64] {
	m := 1
	for 4*m*m*m < n {
		m++
	}
	a := box / float64(m)
	pos := make([]vec.V3[float64], 0, n)
	for i := 0; i < m && len(pos) < n; i++ {
		for j := 0; j < m && len(pos) < n; j++ {
			for k := 0; k < m && len(pos) < n; k++ {
				for _, b := range fccBasis {
					if len(pos) == n {
						return pos
					}
					pos = append(pos, vec.V3[float64]{
						X: (float64(i) + b.X) * a,
						Y: (float64(j) + b.Y) * a,
						Z: (float64(k) + b.Z) * a,
					})
				}
			}
		}
	}
	return pos
}

// MaxwellVelocities draws n velocities from the Maxwell-Boltzmann
// distribution at the given reduced temperature (unit mass): each
// component is normal with variance T.
func MaxwellVelocities(n int, temperature float64, rng *xrand.Source) []vec.V3[float64] {
	s := math.Sqrt(temperature)
	vel := make([]vec.V3[float64], n)
	for i := range vel {
		vel[i] = vec.V3[float64]{
			X: s * rng.NormFloat64(),
			Y: s * rng.NormFloat64(),
			Z: s * rng.NormFloat64(),
		}
	}
	return vel
}

// RemoveDrift subtracts the center-of-mass velocity so total momentum is
// zero (unit masses assumed).
func RemoveDrift(vel []vec.V3[float64]) {
	if len(vel) == 0 {
		return
	}
	var sum vec.V3[float64]
	for _, v := range vel {
		sum = sum.Add(v)
	}
	mean := sum.Scale(1 / float64(len(vel)))
	for i := range vel {
		vel[i] = vel[i].Sub(mean)
	}
}

// Temperature returns the instantaneous reduced temperature of the
// velocity set: T = 2*KE / (3N) with unit masses.
func Temperature(vel []vec.V3[float64]) float64 {
	if len(vel) == 0 {
		return 0
	}
	var ke float64
	for _, v := range vel {
		ke += 0.5 * v.Norm2()
	}
	return 2 * ke / (3 * float64(len(vel)))
}

// ScaleToTemperature rescales velocities so that Temperature(vel) equals
// target exactly (a single velocity-rescaling thermostat kick). A zero
// current temperature (all atoms at rest) is left unchanged.
func ScaleToTemperature(vel []vec.V3[float64], target float64) {
	cur := Temperature(vel)
	if cur == 0 {
		return
	}
	f := math.Sqrt(target / cur)
	for i := range vel {
		vel[i] = vel[i].Scale(f)
	}
}
