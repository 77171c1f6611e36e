package md

import (
	"math"
	"testing"
)

// stepThermostatted advances one velocity-Verlet step and then applies
// th, as mdrun's runner does each step.
func stepThermostatted(s *System[float64], th Thermostat[float64]) {
	s.Step()
	th.Apply(s.Vel, s.Temperature())
	s.KE = KineticEnergy(s.Vel)
}

func TestRescaleThermostatValidation(t *testing.T) {
	if _, err := NewRescaleThermostat[float64](-1, 1); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, err := NewRescaleThermostat[float64](1, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestBerendsenValidation(t *testing.T) {
	if _, err := NewBerendsenThermostat[float64](-1, 0.004, 0.1); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, err := NewBerendsenThermostat[float64](1, 0, 0.1); err == nil {
		t.Fatal("zero dt accepted")
	}
	if _, err := NewBerendsenThermostat[float64](1, 0.01, 0.005); err == nil {
		t.Fatal("tau < dt accepted")
	}
}

func TestRescaleHitsTargetExactly(t *testing.T) {
	s := makeSystem(t, 108, false)
	th, err := NewRescaleThermostat(1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	stepThermostatted(s, th)
	if got := s.Temperature(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("temperature = %v, want 1.5", got)
	}
}

func TestRescaleIntervalRespected(t *testing.T) {
	s := makeSystem(t, 64, false)
	th, err := NewRescaleThermostat(5.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// First two applications (calls 1, 2) must not rescale.
	t0 := s.Temperature()
	th.Apply(s.Vel, t0)
	th.Apply(s.Vel, t0)
	if got := 2 * KineticEnergy(s.Vel) / (3 * float64(s.N())); math.Abs(got-t0) > 1e-12 {
		t.Fatalf("thermostat fired early: %v -> %v", t0, got)
	}
	// Third call rescales.
	th.Apply(s.Vel, t0)
	if got := 2 * KineticEnergy(s.Vel) / (3 * float64(s.N())); math.Abs(got-5.0) > 1e-9 {
		t.Fatalf("thermostat did not fire on interval: %v", got)
	}
}

func TestBerendsenRelaxesTowardTarget(t *testing.T) {
	s := makeSystem(t, 108, false)
	const target = 2.0
	th, err := NewBerendsenThermostat(target, s.P.Dt, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	start := s.Temperature()
	var prevGap float64 = math.Abs(start - target)
	for i := 0; i < 200; i++ {
		stepThermostatted(s, th)
	}
	endGap := math.Abs(s.Temperature() - target)
	if endGap > prevGap/2 {
		t.Fatalf("Berendsen did not relax toward target: gap %v -> %v", prevGap, endGap)
	}
}

func TestBerendsenGentlerThanRescale(t *testing.T) {
	// One Berendsen step with tau >> dt moves temperature less than a
	// full rescale would.
	a := makeSystem(t, 108, false)
	b := a.Clone()
	const target = 3.0
	ber, err := NewBerendsenThermostat(target, a.P.Dt, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRescaleThermostat(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	stepThermostatted(a, ber)
	stepThermostatted(b, res)
	gapBer := math.Abs(a.Temperature() - target)
	gapRes := math.Abs(b.Temperature() - target)
	if gapBer <= gapRes {
		t.Fatalf("Berendsen (gap %v) not gentler than rescale (gap %v)", gapBer, gapRes)
	}
}

func TestThermostatZeroTemperatureNoNaN(t *testing.T) {
	s := makeSystem(t, 32, false)
	s.Vel.Zero()
	th, err := NewRescaleThermostat(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	th.Apply(s.Vel, 0)
	ber, err := NewBerendsenThermostat(1.0, 0.004, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ber.Apply(s.Vel, 0)
	for i := 0; i < s.N(); i++ {
		v := s.Vel.At(i)
		if math.IsNaN(v.X) || math.IsNaN(v.Y) || math.IsNaN(v.Z) {
			t.Fatalf("NaN velocity at %d after zero-T thermostat", i)
		}
	}
}

func TestLangevinValidation(t *testing.T) {
	if _, err := NewLangevinThermostat[float64](-1, 0.004, 1, 1); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, err := NewLangevinThermostat[float64](1, 0, 1, 1); err == nil {
		t.Fatal("zero dt accepted")
	}
	if _, err := NewLangevinThermostat[float64](1, 0.004, 0, 1); err == nil {
		t.Fatal("zero gamma accepted")
	}
	if _, err := NewLangevinThermostat[float64](1, 0.004, 300, 1); err == nil {
		t.Fatal("gamma*dt >= 1 accepted")
	}
}

func TestLangevinSamplesTargetTemperature(t *testing.T) {
	s := makeSystem(t, 256, false)
	const target = 1.4
	th, err := NewLangevinThermostat(target, s.P.Dt, 5.0, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Equilibrate, then average.
	for i := 0; i < 200; i++ {
		stepThermostatted(s, th)
	}
	var sum float64
	const samples = 300
	for i := 0; i < samples; i++ {
		stepThermostatted(s, th)
		sum += s.Temperature()
	}
	mean := sum / samples
	if math.Abs(mean-target) > 0.1*target {
		t.Fatalf("Langevin mean T = %v, want ~%v", mean, target)
	}
}

func TestLangevinDeterministicBySeed(t *testing.T) {
	a := makeSystem(t, 64, false)
	b := a.Clone()
	tha, err := NewLangevinThermostat(1.0, a.P.Dt, 5.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	thb, err := NewLangevinThermostat(1.0, b.P.Dt, 5.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		stepThermostatted(a, tha)
		stepThermostatted(b, thb)
	}
	for i := 0; i < a.N(); i++ {
		if a.Vel.At(i) != b.Vel.At(i) {
			t.Fatalf("same seed diverged at atom %d", i)
		}
	}
}

func TestLangevinHeatsColdSystem(t *testing.T) {
	s := makeSystem(t, 64, false)
	s.Vel.Zero() // start at rest
	s.KE = 0
	th, err := NewLangevinThermostat(1.0, s.P.Dt, 5.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		stepThermostatted(s, th)
	}
	if s.Temperature() < 0.2 {
		t.Fatalf("Langevin failed to heat the system: T = %v", s.Temperature())
	}
}
