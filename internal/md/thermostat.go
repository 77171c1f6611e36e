package md

import (
	"fmt"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// Thermostats: production bio-molecular simulations (the "full-scale
// frameworks" of the paper's future plans) run at constant temperature
// rather than constant energy. Two standard weak-coupling schemes are
// provided; both act only on velocities, between Verlet steps.

// Thermostat rescales velocities toward a target temperature. Apply is
// called once per step with the instantaneous kinetic energy already
// computed by the integrator.
type Thermostat[T vec.Float] interface {
	// Apply adjusts vel in place given the current temperature.
	Apply(vel Coords[T], currentTemp T)
}

// RescaleThermostat hard-rescales to the exact target every Interval
// steps — the crude but effective scheme used for equilibration.
type RescaleThermostat[T vec.Float] struct {
	Target   T
	Interval int // apply every Interval calls (>= 1)

	calls int
}

// NewRescaleThermostat validates the parameters.
func NewRescaleThermostat[T vec.Float](target T, interval int) (*RescaleThermostat[T], error) {
	if !nonNegativeFinite(target) {
		return nil, fmt.Errorf("md: thermostat target temperature must be non-negative and finite, got %v", target)
	}
	if interval < 1 {
		return nil, fmt.Errorf("md: thermostat interval %d must be >= 1", interval)
	}
	return &RescaleThermostat[T]{Target: target, Interval: interval}, nil
}

// Apply implements Thermostat.
func (th *RescaleThermostat[T]) Apply(vel Coords[T], currentTemp T) {
	th.calls++
	if th.calls%th.Interval != 0 || currentTemp <= 0 {
		return
	}
	f := vec.Sqrt(th.Target / currentTemp)
	scalePlanes(vel, f)
}

// BerendsenThermostat couples weakly to a bath: each step the
// temperature relaxes toward the target with time constant Tau,
// λ² = 1 + (dt/τ)(T0/T - 1).
type BerendsenThermostat[T vec.Float] struct {
	Target T
	Dt     T
	Tau    T // coupling time constant (>= Dt)
}

// NewBerendsenThermostat validates the parameters.
func NewBerendsenThermostat[T vec.Float](target, dt, tau T) (*BerendsenThermostat[T], error) {
	if !nonNegativeFinite(target) {
		return nil, fmt.Errorf("md: thermostat target temperature must be non-negative and finite, got %v", target)
	}
	if !positiveFinite(dt) || !positiveFinite(tau) || tau < dt {
		return nil, fmt.Errorf("md: Berendsen needs finite 0 < dt <= tau, got dt=%v tau=%v", dt, tau)
	}
	return &BerendsenThermostat[T]{Target: target, Dt: dt, Tau: tau}, nil
}

// Apply implements Thermostat.
func (th *BerendsenThermostat[T]) Apply(vel Coords[T], currentTemp T) {
	if currentTemp <= 0 {
		return
	}
	lambda2 := 1 + (th.Dt/th.Tau)*(th.Target/currentTemp-1)
	if lambda2 < 0 {
		lambda2 = 0
	}
	f := vec.Sqrt(lambda2)
	scalePlanes(vel, f)
}

// scalePlanes multiplies every component by f, plane-wise. The scale
// of each component is independent, so this performs the same FP
// operations as the old per-atom Scale.
func scalePlanes[T vec.Float](vel Coords[T], f T) {
	for i := range vel.X {
		vel.X[i] *= f
	}
	for i := range vel.Y {
		vel.Y[i] *= f
	}
	for i := range vel.Z {
		vel.Z[i] *= f
	}
}

// LangevinThermostat couples every degree of freedom to a stochastic
// bath: each step, velocities are damped by the friction and kicked
// with noise whose magnitude satisfies the fluctuation-dissipation
// relation, sampling the canonical ensemble at Target. The generator
// is explicit, so trajectories are reproducible by seed.
type LangevinThermostat[T vec.Float] struct {
	Target T
	Dt     T
	Gamma  T // friction, 1/time; Gamma*Dt must be in (0, 1)

	rng *xrand.Source
}

// NewLangevinThermostat validates the parameters and fixes the noise
// stream.
func NewLangevinThermostat[T vec.Float](target, dt, gamma T, seed uint64) (*LangevinThermostat[T], error) {
	if !nonNegativeFinite(target) {
		return nil, fmt.Errorf("md: thermostat target temperature must be non-negative and finite, got %v", target)
	}
	if !positiveFinite(dt) || !positiveFinite(gamma) || gamma*dt >= 1 {
		return nil, fmt.Errorf("md: Langevin needs finite dt, gamma > 0 and gamma*dt < 1, got dt=%v gamma=%v", dt, gamma)
	}
	return &LangevinThermostat[T]{Target: target, Dt: dt, Gamma: gamma, rng: xrand.New(seed)}, nil
}

// Apply implements Thermostat. Deliberately atom-major: the X,Y,Z
// noise draws per atom come from one sequential stream, so this loop
// must not be restructured plane-wise or every seeded trajectory
// changes.
func (th *LangevinThermostat[T]) Apply(vel Coords[T], _ T) {
	damp := 1 - th.Gamma*th.Dt
	sigma := vec.Sqrt(2 * th.Gamma * th.Dt * th.Target)
	for i := range vel.X {
		vel.X[i] = vel.X[i]*damp + sigma*T(th.rng.NormFloat64())
		vel.Y[i] = vel.Y[i]*damp + sigma*T(th.rng.NormFloat64())
		vel.Z[i] = vel.Z[i]*damp + sigma*T(th.rng.NormFloat64())
	}
}
