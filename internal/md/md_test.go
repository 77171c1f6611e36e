package md

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
)

// makeSystem builds a small equilibrating system for integration tests.
func makeSystem(t *testing.T, n int, shifted bool) *System[float64] {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004, Shifted: shifted}
	if 2*p.Cutoff > p.Box {
		p.Cutoff = p.Box / 2 * 0.99
	}
	s, err := NewSystem(st, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemEvaluatesForces(t *testing.T) {
	s := makeSystem(t, 108, false)
	if s.PE == 0 {
		t.Fatal("PE is zero after NewSystem; forces not evaluated")
	}
	anyAcc := false
	for _, a := range s.Acc.V3s() {
		if a.Norm2() > 0 {
			anyAcc = true
			break
		}
	}
	if !anyAcc {
		t.Fatal("all accelerations zero after NewSystem")
	}
}

func TestNewSystemRejectsBadParams(t *testing.T) {
	st, err := lattice.Generate(lattice.Config{N: 8, Density: 0.8, Temperature: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(st, Params[float64]{Box: st.Box, Cutoff: 0, Dt: 0.001}); err == nil {
		t.Fatal("NewSystem accepted zero cutoff")
	}
	// NaN fails every comparison, so it must be rejected explicitly.
	nan := math.NaN()
	for _, p := range []Params[float64]{
		{Box: nan, Cutoff: 1, Dt: 0.001},
		{Box: st.Box, Cutoff: nan, Dt: 0.001},
		{Box: st.Box, Cutoff: 1, Dt: nan},
	} {
		if _, err := NewSystem(st, p); err == nil {
			t.Fatalf("NewSystem accepted %+v", p)
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	// With the shifted potential (continuous at the cutoff) velocity
	// Verlet conserves total energy to high accuracy over hundreds of
	// steps.
	s := makeSystem(t, 108, true)
	e0 := s.TotalEnergy()
	s.Run(300)
	e1 := s.TotalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 5e-4 {
		t.Fatalf("relative energy drift %v over 300 steps (E0=%v, E1=%v)", drift, e0, e1)
	}
}

func TestEnergyDriftShrinksWithDt(t *testing.T) {
	// Verlet is second order: quartering dt should reduce drift by
	// roughly 16x; we assert at least 4x to stay robust.
	drift := func(dt float64, steps int) float64 {
		st, err := lattice.Generate(lattice.Config{
			N: 64, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 777,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := Params[float64]{Box: st.Box, Cutoff: 2.0, Dt: dt, Shifted: true}
		s, err := NewSystem(st, p)
		if err != nil {
			t.Fatal(err)
		}
		e0 := s.TotalEnergy()
		s.Run(steps)
		return math.Abs(s.TotalEnergy()-e0) / math.Abs(e0)
	}
	// Same physical time: dt, 4*steps vs 4*dt, steps.
	big := drift(0.008, 50)
	smallD := drift(0.002, 200)
	if smallD > big/4+1e-12 {
		t.Fatalf("drift did not shrink with dt: dt=0.008 -> %v, dt=0.002 -> %v", big, smallD)
	}
}

func TestMomentumConservation(t *testing.T) {
	s := makeSystem(t, 108, false)
	p0 := s.Momentum()
	s.Run(200)
	p1 := s.Momentum()
	if p1.Sub(p0).Norm() > 1e-9 {
		t.Fatalf("momentum drifted from %v to %v", p0, p1)
	}
}

func TestPositionsStayWrapped(t *testing.T) {
	s := makeSystem(t, 64, false)
	s.Run(100)
	for i, p := range s.Pos.V3s() {
		if p.X < 0 || p.X >= s.P.Box || p.Y < 0 || p.Y >= s.P.Box || p.Z < 0 || p.Z >= s.P.Box {
			t.Fatalf("atom %d escaped the box: %+v", i, p)
		}
	}
}

func TestStepsCounter(t *testing.T) {
	s := makeSystem(t, 32, false)
	s.Run(17)
	if s.Steps != 17 {
		t.Fatalf("Steps = %d, want 17", s.Steps)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := makeSystem(t, 32, false)
	c := s.Clone()
	s.Run(5)
	if c.Steps != 0 {
		t.Fatal("clone's step counter advanced with original")
	}
	if c.Pos.At(0) == s.Pos.At(0) && c.Vel.At(0) == s.Vel.At(0) {
		t.Fatal("clone shares state with original after stepping")
	}
}

func TestCloneRunsIdentically(t *testing.T) {
	s := makeSystem(t, 32, false)
	c := s.Clone()
	s.Run(20)
	c.Run(20)
	for i := 0; i < s.N(); i++ {
		if s.Pos.At(i) != c.Pos.At(i) {
			t.Fatalf("clone diverged at atom %d", i)
		}
	}
	if s.PE != c.PE || s.KE != c.KE {
		t.Fatal("clone energies diverged")
	}
}

func TestTemperatureMatchesDefinition(t *testing.T) {
	s := makeSystem(t, 100, false)
	want := 2 * s.KE / (3 * float64(s.N()))
	if got := s.Temperature(); got != want {
		t.Fatalf("Temperature = %v, want %v", got, want)
	}
}

func TestFloat32TracksFloat64Briefly(t *testing.T) {
	// The single-precision system (what Cell/GPU run) should track the
	// double-precision trajectory closely over a few steps.
	st, err := lattice.Generate(lattice.Config{
		N: 64, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	p64 := Params[float64]{Box: st.Box, Cutoff: 2.0, Dt: 0.004}
	p32 := Params[float32]{Box: float32(st.Box), Cutoff: 2.0, Dt: 0.004}
	s64, err := NewSystem(st, p64)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := NewSystem(st, p32)
	if err != nil {
		t.Fatal(err)
	}
	s64.Run(10)
	s32.Run(10)
	rel := math.Abs(float64(s32.PE)-s64.PE) / math.Abs(s64.PE)
	if rel > 1e-4 {
		t.Fatalf("float32 PE diverged from float64 by %v after 10 steps", rel)
	}
}

func TestStepWithCustomForces(t *testing.T) {
	// StepWith with the reference kernel must equal Step exactly.
	a := makeSystem(t, 32, false)
	b := a.Clone()
	a.Step()
	b.StepWith(func() float64 { return ComputeForces(b.P, b.Pos, b.Acc) })
	for i := 0; i < a.N(); i++ {
		if a.Pos.At(i) != b.Pos.At(i) || a.Vel.At(i) != b.Vel.At(i) {
			t.Fatalf("StepWith diverged from Step at atom %d", i)
		}
	}
}

func TestKineticEnergyHandChecked(t *testing.T) {
	ke := KineticEnergy(CoordsFromV3([]vec.V3[float64]{{X: 1}, {Y: 2}}))
	if ke != 0.5*(1+4) {
		t.Fatalf("KE = %v, want 2.5", ke)
	}
}

func TestVerletTimeReversibility(t *testing.T) {
	// Velocity Verlet is time-reversible: run forward, negate the
	// velocities, run the same number of steps, and the system returns
	// to its starting point (up to floating-point roundoff).
	s := makeSystem(t, 108, true)
	start := s.Clone()
	const steps = 40
	s.Run(steps)
	for i := 0; i < s.N(); i++ {
		s.Vel.Set(i, s.Vel.At(i).Neg())
	}
	s.Run(steps)
	for i := 0; i < s.N(); i++ {
		d := MinImage(s.Pos.At(i).Sub(start.Pos.At(i)), s.P.Box).Norm()
		if d > 1e-7 {
			t.Fatalf("atom %d did not return: displaced by %v", i, d)
		}
	}
}
