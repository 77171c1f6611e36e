// Package md implements the reference molecular-dynamics kernel the
// paper ports to the Cell BE, the GPU, and the Cray MTA-2 (section 3.5):
//
//  1. advance velocities (half kick)
//  2. compute forces on each of the N atoms: for every other atom,
//     compute the minimum-image distance on the fly and, if it is within
//     the cutoff, accumulate the 6-12 Lennard-Jones force — an O(N²)
//     loop with no neighbor list, exactly as the paper specifies
//  3. move atoms (drift)
//  4. update (wrap) positions
//  5. compute kinetic, potential, and total energy
//
// integrated with the velocity Verlet algorithm. The engine is generic
// over float32/float64 because the paper's Cell and GPU ports are
// single-precision while the MTA-2 and Opteron runs are double-
// precision; the device models in internal/cell, internal/gpu,
// internal/mta, and internal/opteron all reproduce this package's
// numbers (it is the correctness oracle), adding only cycle accounting.
//
// The package also provides the neighbor-pairlist optimization the
// paper cites as the standard cache-friendly technique but deliberately
// does not use (section 3.4); it exists here for the ablation benches,
// and its rows are the pair enumerator for every host pass that is not
// the paper's kernel: the set-up forces in NewSystem, the virial
// pressure and the RDF.
package md

import (
	"fmt"
	"math"

	"repro/internal/lattice"
	"repro/internal/vec"
)

// Params are the physical and numerical parameters of a simulation, in
// reduced Lennard-Jones units (sigma = epsilon = mass = k_B = 1 unless
// overridden).
type Params[T vec.Float] struct {
	Box     T // cubic box side length
	Cutoff  T // interaction cutoff distance r_c
	Dt      T // integration time step
	Epsilon T // LJ well depth (0 means 1)
	Sigma   T // LJ diameter (0 means 1)

	// Shifted, when true, subtracts V(r_c) from the pair potential so
	// the energy is continuous at the cutoff. The paper's kernel uses
	// the plain truncated potential (Shifted=false); the shifted form
	// exists for the energy-conservation property tests, where the
	// discontinuity of plain truncation would otherwise dominate.
	Shifted bool
}

// Epsilon1 returns Epsilon with the zero-value default applied.
func (p Params[T]) Epsilon1() T {
	if p.Epsilon == 0 {
		return 1
	}
	return p.Epsilon
}

// Sigma1 returns Sigma with the zero-value default applied.
func (p Params[T]) Sigma1() T {
	if p.Sigma == 0 {
		return 1
	}
	return p.Sigma
}

// Validate reports whether the parameters describe a runnable system:
// Box, Cutoff and Dt positive and finite, and Epsilon and Sigma either
// 0 (the default) or positive and finite. The checks are written so
// that NaN fails them too.
func (p Params[T]) Validate() error {
	if !positiveFinite(p.Box) {
		return fmt.Errorf("md: box must be positive and finite, got %v", p.Box)
	}
	if !positiveFinite(p.Cutoff) {
		return fmt.Errorf("md: cutoff must be positive and finite, got %v", p.Cutoff)
	}
	if !positiveFinite(p.Dt) {
		return fmt.Errorf("md: dt must be positive and finite, got %v", p.Dt)
	}
	if p.Epsilon != 0 && !positiveFinite(p.Epsilon) {
		return fmt.Errorf("md: epsilon must be positive and finite (or 0 for 1), got %v", p.Epsilon)
	}
	if p.Sigma != 0 && !positiveFinite(p.Sigma) {
		return fmt.Errorf("md: sigma must be positive and finite (or 0 for 1), got %v", p.Sigma)
	}
	if 2*p.Cutoff > p.Box {
		return fmt.Errorf("md: cutoff %v exceeds half the box %v; minimum image is ambiguous", p.Cutoff, p.Box)
	}
	return nil
}

// positiveFinite reports whether x is positive and finite: x-x is 0
// for a finite x and NaN for NaN and ±Inf.
func positiveFinite[T vec.Float](x T) bool {
	return x > 0 && x-x == 0
}

// nonNegativeFinite reports whether x is zero or positive, and finite.
func nonNegativeFinite[T vec.Float](x T) bool {
	return x >= 0 && x-x == 0
}

// System is the full dynamic state of a simulation. The hot state
// (positions, velocities, accelerations) lives in SoA component planes
// carved from one arena allocated at construction, so steady-state
// stepping never touches the heap.
type System[T vec.Float] struct {
	P   Params[T]
	Pos Coords[T] // wrapped into [0, Box)
	Vel Coords[T]
	Acc Coords[T]

	// Energies from the most recent force evaluation / step.
	PE T // potential energy
	KE T // kinetic energy

	Steps int // completed integration steps
}

// newSystemState allocates the Pos/Vel/Acc planes for n atoms from a
// single 9n-element arena.
func (s *System[T]) newSystemState(n int) {
	arena := make([]T, 9*n)
	s.Pos = coordsOver(arena, n)
	s.Vel = coordsOver(arena[3*n:], n)
	s.Acc = coordsOver(arena[6*n:], n)
}

// NewSystem builds a System at precision T from a generated initial
// condition, evaluating forces once so that Acc and PE are valid before
// the first step. The evaluation runs over the rows of a throwaway
// neighbor list — ComputeForces bit for bit (see NeighborList.Forces)
// at the cost of a build instead of an O(N²) scan. A NaN coordinate,
// which a list build drops, takes ComputeForces itself, so it poisons
// PE and Acc exactly as the scan does.
func NewSystem[T vec.Float](st *lattice.State, p Params[T]) (*System[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(st.Pos)
	s := &System[T]{P: p}
	s.newSystemState(n)
	for i := 0; i < n; i++ {
		s.Pos.Set(i, vec.FromV3f64[T](st.Pos[i]))
		s.Vel.Set(i, vec.FromV3f64[T](st.Vel[i]))
	}
	s.wrapAll()
	if s.Pos.finite() {
		s.PE = scanList(s.P, s.Pos).Forces(s.P, s.Pos, s.Acc)
	} else {
		s.PE = ComputeForces(s.P, s.Pos, s.Acc)
	}
	s.KE = KineticEnergy(s.Vel)
	return s, nil
}

// N returns the number of atoms.
func (s *System[T]) N() int { return s.Pos.Len() }

// TotalEnergy returns PE + KE from the latest evaluation.
func (s *System[T]) TotalEnergy() T { return s.PE + s.KE }

// Temperature returns the instantaneous reduced temperature 2KE/(3N).
func (s *System[T]) Temperature() T {
	if s.Vel.Len() == 0 {
		return 0
	}
	return 2 * s.KE / (3 * T(s.Vel.Len()))
}

// Momentum returns the total momentum (unit masses).
func (s *System[T]) Momentum() vec.V3[T] {
	var p vec.V3[T]
	for i := 0; i < s.Vel.Len(); i++ {
		p = p.Add(s.Vel.At(i))
	}
	return p
}

// Clone returns a deep copy of the system (fresh arena), used to run
// the same state on several devices and to snapshot for checkpoints.
func (s *System[T]) Clone() *System[T] {
	c := &System[T]{P: s.P, PE: s.PE, KE: s.KE, Steps: s.Steps}
	c.newSystemState(s.N())
	c.Pos.CopyFrom(s.Pos)
	c.Vel.CopyFrom(s.Vel)
	c.Acc.CopyFrom(s.Acc)
	return c
}

// wrapAll folds every position back into [0, Box). Plane-wise: wrap1
// acts on one component at a time, so per-plane iteration performs the
// identical operations as the old per-atom Wrap.
func (s *System[T]) wrapAll() {
	box := s.P.Box
	for i, x := range s.Pos.X {
		s.Pos.X[i] = wrap1(x, box)
	}
	for i, y := range s.Pos.Y {
		s.Pos.Y[i] = wrap1(y, box)
	}
	for i, z := range s.Pos.Z {
		s.Pos.Z[i] = wrap1(z, box)
	}
}

// Wrap folds one coordinate vector into [0, box) per component. It
// assumes displacements per step are below one box length, which the
// validated time steps guarantee by many orders of magnitude.
func Wrap[T vec.Float](p vec.V3[T], box T) vec.V3[T] {
	return vec.V3[T]{X: wrap1(p.X, box), Y: wrap1(p.Y, box), Z: wrap1(p.Z, box)}
}

func wrap1[T vec.Float](x, box T) T {
	if x < 0 {
		x += box
	} else if x >= box {
		x -= box
	}
	if x >= 0 && x < box {
		return x
	}
	// Drift beyond one box length (never hit in healthy runs). Fold by
	// modulo rather than repeated subtraction: the fold must be total,
	// because a corrupted coordinate reaches here mid-step, before any
	// health check can see it — ±Inf would spin a subtraction loop
	// forever, and a merely huge value would take ~|x|/box iterations.
	// Mod maps non-finite x to NaN, which propagates out for the
	// supervisor's watchdog to catch and roll back.
	x = T(math.Mod(float64(x), float64(box)))
	if x < 0 {
		x += box
	}
	return x
}

// Step advances the system one velocity-Verlet step (kick-drift-kick)
// using the reference O(N²) on-the-fly force evaluation.
func (s *System[T]) Step() {
	s.StepWith(func() T { return ComputeForces(s.P, s.Pos, s.Acc) })
}

// StepWith advances one velocity-Verlet step, delegating the force
// evaluation (write Acc, return PE) to forces. Device models and the
// pairlist variant plug in here so that the integrator is shared and
// only the force kernel differs — mirroring the paper, where only the
// acceleration computation is offloaded.
func (s *System[T]) StepWith(forces func() T) {
	_ = s.StepWithE(func() (T, error) { return forces(), nil })
}

// StepWithE is StepWith for force evaluations that can fail (worker
// faults, bonded blow-ups). On error the step is abandoned: Steps is
// not incremented and the returned error propagates, but the state is
// mid-step (velocities half-kicked, positions drifted) — callers that
// continue after an error must restore a known-good state first, which
// is exactly what the guard supervisor's checkpoint rollback does.
func (s *System[T]) StepWithE(forces func() (T, error)) error {
	dt := s.P.Dt
	half := dt / 2
	box := s.P.Box
	// The kick/drift loops run plane-wise over the SoA arrays: each
	// component update (v += half*a; p = wrap1(p + dt*v)) is independent
	// across components, so the per-plane order performs exactly the
	// same FP operations as the old per-atom MulAdd/Wrap.
	halfKick(s.Vel.X, s.Acc.X, half)
	halfKick(s.Vel.Y, s.Acc.Y, half)
	halfKick(s.Vel.Z, s.Acc.Z, half)
	drift(s.Pos.X, s.Vel.X, dt, box)
	drift(s.Pos.Y, s.Vel.Y, dt, box)
	drift(s.Pos.Z, s.Vel.Z, dt, box)
	pe, err := forces()
	if err != nil {
		return err
	}
	s.PE = pe
	halfKick(s.Vel.X, s.Acc.X, half)
	halfKick(s.Vel.Y, s.Acc.Y, half)
	halfKick(s.Vel.Z, s.Acc.Z, half)
	s.KE = KineticEnergy(s.Vel)
	s.Steps++
	return nil
}

// halfKick folds vel += h*acc over one component plane.
func halfKick[T vec.Float](vel, acc []T, h T) {
	for i, a := range acc {
		vel[i] += h * a
	}
}

// drift advances pos += dt*vel and wraps, over one component plane.
func drift[T vec.Float](pos, vel []T, dt, box T) {
	for i, v := range vel {
		pos[i] = wrap1(pos[i]+dt*v, box)
	}
}

// Run advances n steps with the reference force kernel.
func (s *System[T]) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// KineticEnergy returns sum(v²)/2 over the velocity set (unit masses).
// Deliberately atom-major: Norm2's left-associated (x²+y²)+z² per atom
// is part of the pinned bit pattern, so this one reduction must not be
// restructured plane-wise.
func KineticEnergy[T vec.Float](vel Coords[T]) T {
	var ke T
	for i := 0; i < vel.Len(); i++ {
		ke += vel.At(i).Norm2()
	}
	return ke / 2
}
