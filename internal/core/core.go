// Package core is the experiment runner of the reproduction: it builds
// the standard workloads, runs them across the modeled devices
// (internal/opteron, internal/cell, internal/gpu, internal/mta),
// cross-validates every device's physics against the reference
// implementation in internal/md, and defines one function per table and
// figure of the paper's evaluation section (experiments.go).
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cell"
	"repro/internal/device"
	"repro/internal/gpu"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mta"
	"repro/internal/opteron"
)

// Standard simulation parameters used by every experiment, in reduced
// Lennard-Jones units: the classic liquid-argon state point.
const (
	StdDensity     = 0.8442
	StdTemperature = 0.728
	StdCutoff      = 2.5
	StdDt          = 0.004
	StdSeed        = 20070326 // IPDPS 2007, first day
)

// StandardWorkload builds the workload every experiment shares: an FCC
// lattice at the standard state point, equilibrium velocities, and the
// paper's cutoff. For very small systems the cutoff is reduced to fit
// the minimum-image requirement.
func StandardWorkload(n, steps int) (device.Workload, error) {
	st, err := lattice.Generate(lattice.Config{
		N:           n,
		Density:     StdDensity,
		Temperature: StdTemperature,
		Kind:        lattice.FCC,
		Seed:        StdSeed,
	})
	if err != nil {
		return device.Workload{}, err
	}
	return device.Workload{State: st, Cutoff: FitCutoff(StdCutoff, st.Box), Dt: StdDt, Steps: steps}, nil
}

// FitCutoff is the small-system cutoff rule every standard-state entry
// point shares: the cutoff itself, or just under half the box side when
// the cutoff would break the minimum-image requirement.
func FitCutoff(cutoff, box float64) float64 {
	if 2*cutoff > box {
		return box / 2 * 0.99
	}
	return cutoff
}

// ReferenceEnergies integrates the workload with the double-precision
// reference kernel and returns the final PE and KE — the oracle every
// device result is checked against. Results are memoized per workload
// shape: experiments validate several devices against the same
// trajectory, and the oracle run is as expensive as a device run.
func ReferenceEnergies(w device.Workload) (pe, ke float64, err error) {
	key := refKey{n: len(w.State.Pos), steps: w.Steps, box: w.State.Box, cutoff: w.Cutoff, dt: w.Dt}
	refMu.Lock()
	if v, ok := refCache[key]; ok {
		refMu.Unlock()
		return v.pe, v.ke, nil
	}
	refMu.Unlock()

	p := md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt}
	sys, err := md.NewSystem(w.State, p)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < w.Steps; i++ {
		sys.StepWith(func() float64 { return md.ComputeForcesFull(sys.P, sys.Pos, sys.Acc) })
	}

	refMu.Lock()
	refCache[key] = refVal{pe: sys.PE, ke: sys.KE}
	refMu.Unlock()
	return sys.PE, sys.KE, nil
}

// refKey identifies a StandardWorkload-shaped run. Workloads built
// outside StandardWorkload with the same shape but different initial
// states would collide, so the cache is keyed on everything Workload
// carries besides the (seed-determined) state; core's experiments all
// share StdSeed.
type refKey struct {
	n, steps    int
	box, cutoff float64
	dt          float64
}

type refVal struct{ pe, ke float64 }

var (
	refMu    sync.Mutex
	refCache = make(map[refKey]refVal)
)

// Tolerances for physics validation: double-precision devices must
// match the oracle almost exactly; single-precision devices (Cell,
// GPU) accumulate float32 rounding over the trajectory.
const (
	TolDouble = 1e-9
	TolSingle = 2e-2
)

// Validate checks a device result against the reference energies for
// its workload within relTol.
func Validate(res *device.Result, w device.Workload, relTol float64) error {
	pe, ke, err := ReferenceEnergies(w)
	if err != nil {
		return err
	}
	if relErr := relDiff(res.PE, pe); relErr > relTol {
		return fmt.Errorf("core: %s/%s PE %v deviates from reference %v by %v (tol %v)",
			res.Device, res.Variant, res.PE, pe, relErr, relTol)
	}
	if relErr := relDiff(res.KE, ke); relErr > relTol {
		return fmt.Errorf("core: %s/%s KE %v deviates from reference %v by %v (tol %v)",
			res.Device, res.Variant, res.KE, ke, relErr, relTol)
	}
	return nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// runValidated runs the workload on dev and validates its physics.
func runValidated(dev device.Device, w device.Workload, relTol float64) (*device.Result, error) {
	res, err := dev.Run(w)
	if err != nil {
		return nil, err
	}
	if err := Validate(res, w, relTol); err != nil {
		return nil, err
	}
	return res, nil
}

// Device constructors with the calibrated default configurations.

// NewOpteron returns the baseline CPU model.
func NewOpteron() device.Device { return opteron.New(opteron.DefaultConfig()) }

// NewCell returns a Cell model with the given SPE count and launch
// mode, running the fully optimized kernel.
func NewCell(nspe int, mode cell.Mode) (device.Device, error) {
	cfg := cell.DefaultConfig()
	cfg.NSPE = nspe
	cfg.Mode = mode
	return cell.New(cfg)
}

// NewCellPPEOnly returns the PPE-only Cell configuration.
func NewCellPPEOnly() (device.Device, error) {
	cfg := cell.DefaultConfig()
	cfg.PPEOnly = true
	return cell.New(cfg)
}

// NewGPU returns the GPU model.
func NewGPU() (device.Device, error) { return gpu.New(gpu.DefaultConfig()) }

// NewMTA returns an MTA-2 model with the given threading mode.
func NewMTA(threading mta.Threading) (device.Device, error) {
	cfg := mta.DefaultConfig()
	cfg.Threading = threading
	return mta.New(cfg)
}

// Devices returns every default-configured device, for tools that
// iterate over all of them.
func Devices() (map[string]device.Device, error) {
	c8, err := NewCell(8, cell.LaunchOnce)
	if err != nil {
		return nil, err
	}
	g, err := NewGPU()
	if err != nil {
		return nil, err
	}
	m, err := NewMTA(mta.FullyThreaded)
	if err != nil {
		return nil, err
	}
	return map[string]device.Device{
		"opteron": NewOpteron(),
		"cell":    c8,
		"gpu":     g,
		"mta":     m,
	}, nil
}
