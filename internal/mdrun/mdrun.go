// Package mdrun composes the MD building blocks into the kind of
// simulation front end the paper's future plans point at ("full-scale
// bio-molecular simulation frameworks"): one Config selects the force
// method (the paper's direct O(N²) kernel or the O(N) Verlet pairlist),
// an optional bonded topology, an optional thermostat, trajectory
// output, and on-line observables (temperature averages, RDF, MSD,
// pressure); one Run produces a Summary.
//
// Every cadence (sample, trajectory frame, Rescale kick) fires when
// System.Steps is a multiple of its stride, so a run called in segments
// or resumed from a checkpoint matches the uninterrupted run; every
// Summary field covers the runner's life since New or NewFromSystem.
//
// All force methods integrate the identical physics (pinned by tests),
// so switching between them is purely a performance decision — the same
// property the device models rely on.
//
// The observables never scan all pairs. The RDF samples and the final
// pressure read neighbor-list rows: with the Pairlist method, the rows
// of the live force list (refreshed first if stale, as a force
// evaluation would); with Direct, a throwaway list md builds for the
// pass. Either way the results are bitwise those of an all-pairs scan
// (see md.VirialOver and md.RDF.AccumulateOver).
package mdrun

import (
	"context"
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/parallel"
)

// ForceMethod selects the non-bonded force algorithm. How many host
// workers evaluate it is the independent Config.Workers.
type ForceMethod int

const (
	// Direct is the paper's kernel: O(N²), distances on the fly.
	Direct ForceMethod = iota
	// Pairlist is the Verlet neighbor list (cutoff + skin), built over
	// a cell binning: the O(N) method.
	Pairlist
)

// String implements fmt.Stringer.
func (f ForceMethod) String() string {
	switch f {
	case Direct:
		return "direct"
	case Pairlist:
		return "pairlist"
	default:
		return fmt.Sprintf("ForceMethod(%d)", int(f))
	}
}

// ParseMethod is the inverse of ForceMethod.String: it accepts
// "direct" or "pairlist".
func ParseMethod(s string) (ForceMethod, error) {
	for m := Direct; m <= Pairlist; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("mdrun: unknown force method %q (want direct|pairlist)", s)
}

// ThermostatKind selects temperature control.
type ThermostatKind int

const (
	// NVE runs without a thermostat (constant energy).
	NVE ThermostatKind = iota
	// Rescale hard-rescales to the target when Steps%rescaleInterval == 0.
	Rescale
	// Berendsen couples weakly with time constant berendsenTauSteps·Dt.
	Berendsen
	// Langevin couples stochastically with friction langevinGamma
	// (canonical sampling; noise stream seeded from Config.Seed+1).
	Langevin
)

// String implements fmt.Stringer.
func (t ThermostatKind) String() string {
	switch t {
	case NVE:
		return "nve"
	case Rescale:
		return "rescale"
	case Berendsen:
		return "berendsen"
	case Langevin:
		return "langevin"
	default:
		return fmt.Sprintf("ThermostatKind(%d)", int(t))
	}
}

// ParseThermostat is the inverse of ThermostatKind.String, with "" for
// NVE (the zero value, as in an unset Config).
func ParseThermostat(s string) (ThermostatKind, error) {
	if s == "" {
		return NVE, nil
	}
	for k := NVE; k <= Langevin; k++ {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("mdrun: unknown thermostat %q (want nve|rescale|berendsen|langevin)", s)
}

// ParseCheckpointableThermostat is ParseThermostat refusing Langevin:
// no checkpoint carries its noise stream position, so a resumed
// Langevin run would not continue the uninterrupted trajectory.
func ParseCheckpointableThermostat(s string) (ThermostatKind, error) {
	k, err := ParseThermostat(s)
	if err != nil || k == Langevin {
		return 0, fmt.Errorf("mdrun: unknown thermostat %q (want nve|rescale|berendsen; langevin is not checkpointable)", s)
	}
	return k, nil
}

// Config describes a full simulation.
type Config struct {
	// System.
	Atoms       int
	Density     float64
	Temperature float64
	Lattice     lattice.Kind
	Seed        uint64

	// Numerics.
	Cutoff  float64
	Dt      float64
	Shifted bool // shift the LJ potential to zero at the cutoff

	// Forces.
	Method       ForceMethod
	PairlistSkin float64 // used by Pairlist (default 0.4)
	// Workers is the host worker count for the force evaluation. At
	// most 1 (the zero value included) runs the serial kernel and
	// spawns no pool; 2 or more shard Method across a parallel.Engine
	// of that many workers (clamped to parallel.MaxWorkers).
	Workers int

	// Optional bonded topology (nil for the pure LJ fluid).
	Topology *md.Topology

	// Temperature control.
	Thermostat ThermostatKind

	// Trajectory output (nil to disable).
	Trajectory      io.Writer
	TrajectoryEvery int // frames every N steps (default 10)

	// Observables.
	SampleRDF   bool
	SampleEvery int // observable sampling stride (default 10)

	// Faults optionally injects failures for resilience testing: the
	// trajectory writer is wrapped at faults.SiteTrajectory, every
	// force evaluation consults faults.SiteForces, and the parallel
	// engine (if any) is armed at faults.SiteWorker and
	// faults.SiteParallelForces. Nil (the default) costs one nil check
	// per step.
	Faults faults.Injector
}

// Fixed run settings that no caller varies.
const (
	rescaleInterval   = 10  // Rescale: steps between kicks
	berendsenTauSteps = 25  // Berendsen: coupling time constant, in Dt
	langevinGamma     = 5.0 // Langevin: friction, 1/time
	rdfBins           = 50  // RDF histogram bins
)

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.PairlistSkin == 0 {
		c.PairlistSkin = 0.4
	}
	if c.TrajectoryEvery == 0 {
		c.TrajectoryEvery = 10
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10
	}
	return c
}

// checkStrides rejects a negative sampling or trajectory stride. Zero
// means the default, and the step loop's Steps%stride would quietly
// run a stride of -3 as 3.
func (c Config) checkStrides() error {
	if c.SampleEvery < 0 || c.TrajectoryEvery < 0 {
		return fmt.Errorf("mdrun: SampleEvery (%d) and TrajectoryEvery (%d) must not be negative", c.SampleEvery, c.TrajectoryEvery)
	}
	return nil
}

// Summary reports a runner's life since New or NewFromSystem, however
// many Run calls that spans: the steps after StartStep.
type Summary struct {
	StartStep     int     // System.Steps when the runner was built
	Steps         int     // steps completed since the runner was built
	InitialEnergy float64 // total energy when the runner was built
	FinalEnergy   float64
	// MeanTemperature averages the temperatures sampled on the steps
	// that are multiples of SampleEvery.
	MeanTemperature float64
	// Pressure is the final-configuration virial pressure (zero in a
	// failed run's partial Summary).
	Pressure float64
	MSD      float64 // mean-square displacement since the runner was built
	// RDF results (nil unless Config.SampleRDF).
	RDFCenters, RDF []float64
	// FramesWritten counts trajectory frames.
	FramesWritten int
}

// Runner holds a configured simulation.
type Runner struct {
	cfg Config
	sys *md.System[float64]

	forces func() (float64, error)
	bonded *md.Topology
	therm  md.Thermostat[float64]
	traj   *md.XYZWriter
	rdf    *md.RDF
	msd    *md.MSD
	// nl is the Pairlist method's live force list (nil otherwise). The
	// RDF samples and the end-of-run pressure read its rows instead of
	// building a list of their own.
	nl     *md.NeighborList[float64]
	engine *parallel.Engine[float64] // non-nil when Workers > 1

	// The Summary window: its start step and energy, and the sampled
	// temperatures' sum and count.
	startStep, tempSamples int
	e0, tempSum            float64
}

// New builds and validates a runner; forces are evaluated once so the
// initial energy is meaningful.
func New(cfg Config) (*Runner, error) {
	if err := cfg.checkStrides(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	st, err := lattice.Generate(lattice.Config{
		N: cfg.Atoms, Density: cfg.Density, Temperature: cfg.Temperature,
		Kind: cfg.Lattice, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: cfg.Cutoff, Dt: cfg.Dt, Shifted: cfg.Shifted}
	sys, err := md.NewSystem(st, p)
	if err != nil {
		return nil, err
	}
	return assemble(cfg, sys)
}

// NewFromSystem builds a runner that continues from an existing system
// state — a restored checkpoint, or a state handed over from another
// runner (the guard supervisor's rollback/escalation path). The
// Config's lattice-shape fields (Atoms, Density, Lattice, Seed) are
// ignored; the box comes from sys, while Cutoff, Dt, and Shifted are
// taken from cfg when set (Dt overriding is what lets the supervisor
// halve the time step on retry). An unset Cutoff or Dt is filled from
// sys before the defaults, so the Berendsen coupling constant and the
// thermostat's time step follow the system's Dt. The system is
// adopted, not copied, and its stored accelerations are kept so a
// same-method resume stays bit-exact with an uninterrupted run.
func NewFromSystem(sys *md.System[float64], cfg Config) (*Runner, error) {
	if sys == nil || sys.N() == 0 {
		return nil, fmt.Errorf("mdrun: NewFromSystem needs a non-empty system")
	}
	if err := cfg.checkStrides(); err != nil {
		return nil, err
	}
	if !(cfg.Cutoff > 0) {
		cfg.Cutoff = sys.P.Cutoff
	}
	if !(cfg.Dt > 0) {
		cfg.Dt = sys.P.Dt
	}
	cfg = cfg.withDefaults()
	sys.P.Cutoff, sys.P.Dt = cfg.Cutoff, cfg.Dt
	sys.P.Shifted = cfg.Shifted
	if err := sys.P.Validate(); err != nil {
		return nil, err
	}
	return assemble(cfg, sys)
}

// assemble wires forces, thermostat, trajectory, and observables
// around an existing system.
func assemble(cfg Config, sys *md.System[float64]) (*Runner, error) {
	r := &Runner{cfg: cfg, sys: sys, bonded: cfg.Topology, startStep: sys.Steps, e0: sys.TotalEnergy()}

	if r.bonded != nil {
		if err := r.bonded.Validate(sys.N()); err != nil {
			return nil, err
		}
	}

	nonbonded, err := r.buildForces()
	if err != nil {
		return nil, err
	}
	r.forces = func() (float64, error) {
		pe, err := nonbonded()
		if err != nil {
			return 0, err
		}
		if r.bonded != nil {
			bpe, err := md.BondedForces(r.bonded, sys.P.Box, sys.Pos, sys.Acc)
			if err != nil {
				// Bonded failures (coincident atoms) indicate a blown-up
				// trajectory; surface as a step error.
				return 0, err
			}
			pe += bpe
		}
		if f := faults.Fire(cfg.Faults, faults.SiteForces); f != nil {
			faults.CorruptPlane(f.Kind, sys.Acc.X)
		}
		return pe, nil
	}

	switch cfg.Thermostat {
	case NVE:
	case Rescale:
		// Called on kick steps only (see RunContext): the phase comes
		// from System.Steps, which checkpoints carry, not a call count.
		r.therm, err = md.NewRescaleThermostat(cfg.Temperature, 1)
	case Berendsen:
		r.therm, err = md.NewBerendsenThermostat(cfg.Temperature, cfg.Dt, berendsenTauSteps*cfg.Dt)
	case Langevin:
		r.therm, err = md.NewLangevinThermostat(cfg.Temperature, cfg.Dt, langevinGamma, cfg.Seed+1)
	default:
		err = fmt.Errorf("mdrun: unknown thermostat %d", int(cfg.Thermostat))
	}
	if err != nil {
		return nil, err
	}

	if cfg.Trajectory != nil {
		r.traj = md.NewXYZWriter(faults.NewWriter(cfg.Trajectory, cfg.Faults, faults.SiteTrajectory), "Ar")
	}
	if cfg.SampleRDF {
		rMax := sys.P.Cutoff
		if rMax > sys.P.Box/2 {
			rMax = sys.P.Box / 2 * 0.99
		}
		r.rdf, err = md.NewRDF(sys.P.Box, rMax, rdfBins)
		if err != nil {
			return nil, err
		}
	}
	r.msd = md.NewMSD(sys.P.Box, sys.Pos)
	return r, nil
}

// buildForces wires the selected non-bonded method on the
// error-returning kernel path (serial kernels cannot fail; parallel
// kernels surface worker faults as errors). Workers > 1 shards the
// method on a worker pool; otherwise the serial kernel runs and no
// pool is spawned. The Pairlist force path keeps its own list fresh:
// NeighborList.Forces rebuilds it serially, Engine.ForcesPairlist on
// the runner's own pool.
func (r *Runner) buildForces() (func() (float64, error), error) {
	sys := r.sys
	sharded := r.cfg.Workers > 1
	infallible := func(f func() float64) func() (float64, error) {
		return func() (float64, error) { return f(), nil }
	}
	switch r.cfg.Method {
	case Direct:
		if sharded {
			e := r.newEngine()
			return func() (float64, error) { return e.ForcesDirect(sys.P, sys.Pos, sys.Acc) }, nil
		}
		return infallible(func() float64 { return md.ComputeForces(sys.P, sys.Pos, sys.Acc) }), nil
	case Pairlist:
		nl, err := md.NewNeighborList[float64](r.cfg.PairlistSkin)
		if err != nil {
			return nil, err
		}
		r.nl = nl
		if sharded {
			e := r.newEngine()
			return func() (float64, error) { return e.ForcesPairlist(nl, sys.P, sys.Pos, sys.Acc) }, nil
		}
		return infallible(func() float64 { return nl.Forces(sys.P, sys.Pos, sys.Acc) }), nil
	default:
		return nil, fmt.Errorf("mdrun: unknown force method %d", int(r.cfg.Method))
	}
}

// newEngine builds the worker pool and arms it with the configured
// fault injector.
func (r *Runner) newEngine() *parallel.Engine[float64] {
	r.engine = parallel.New[float64](r.cfg.Workers)
	r.engine.SetInjector(r.cfg.Faults)
	return r.engine
}

// Close releases the parallel worker pool, if any. The Runner must not
// be used after Close. Close is idempotent, safe on serial runners,
// safe to call concurrently from several goroutines, and safe after a
// failed Run — the pool drains even when the last evaluation errored.
func (r *Runner) Close() {
	if r.engine != nil {
		r.engine.Close()
	}
}

// Workers returns the number of host workers evaluating forces: 1 for
// the serial kernels, the pool size otherwise.
func (r *Runner) Workers() int {
	if r.engine == nil {
		return 1
	}
	return r.engine.Workers()
}

// System exposes the live state (read-mostly; used by tests and tools).
func (r *Runner) System() *md.System[float64] { return r.sys }

// Run advances the simulation the given number of steps and returns
// the runner's Summary. Failures — a worker fault, a bonded blow-up, a
// trajectory-write error — return an error with a partial Summary (no
// Pressure) of the steps completed before it; there is no panic path.
// After a failed Run the system state may be mid-step; continue only
// from a restored checkpoint (see internal/guard).
func (r *Runner) Run(steps int) (*Summary, error) {
	return r.RunContext(context.Background(), steps)
}

// RunContext is Run bounded by a context: cancellation (or deadline
// expiry) is checked at every step boundary and inside the parallel
// worker pool, so a cancelled run stops within one MD step — with a
// partial Summary and an error wrapping ctx.Err() — rather than at run
// end. Cancellation caught at a step boundary leaves the system at
// whole-step state; cancellation that lands mid-force-evaluation is a
// failed step like any other (state may be mid-step; the guard
// supervisor rolls back before reuse).
func (r *Runner) RunContext(ctx context.Context, steps int) (*Summary, error) {
	if steps < 0 {
		return nil, fmt.Errorf("mdrun: steps must be non-negative, got %d", steps)
	}
	if r.engine != nil {
		r.engine.SetContext(ctx)
	}

	sys := r.sys
	for end := sys.Steps + steps; sys.Steps < end; {
		if cerr := ctx.Err(); cerr != nil {
			return r.summary(fmt.Errorf("cancelled before step %d: %w", sys.Steps+1, cerr))
		}
		if err := sys.StepWithE(r.forces); err != nil {
			return r.summary(fmt.Errorf("step %d: %w", sys.Steps+1, err))
		}
		if r.therm != nil && (r.cfg.Thermostat != Rescale || sys.Steps%rescaleInterval == 0) {
			r.therm.Apply(sys.Vel, sys.Temperature())
			sys.KE = md.KineticEnergy(sys.Vel)
		}
		if err := r.msd.Track(sys.Pos); err != nil {
			return r.summary(err)
		}
		if sys.Steps%r.cfg.SampleEvery == 0 {
			r.tempSum += sys.Temperature()
			r.tempSamples++
			if r.rdf != nil {
				if err := r.rdf.AccumulateOver(r.nl, sys.P, sys.Pos); err != nil {
					return r.summary(err)
				}
			}
		}
		if r.traj != nil && sys.Steps%r.cfg.TrajectoryEvery == 0 {
			comment := fmt.Sprintf("step %d PE %.6f KE %.6f", sys.Steps, sys.PE, sys.KE)
			if err := r.traj.WriteFrame(comment, sys.Pos); err != nil {
				return r.summary(fmt.Errorf("trajectory: %w", err))
			}
		}
	}
	if r.traj != nil {
		if err := r.traj.Flush(); err != nil {
			return r.summary(fmt.Errorf("trajectory: %w", err))
		}
	}
	return r.summary(nil)
}

// summary reports the runner's life so far, after the call ended with
// err (nil on success). A failed call's state may be mid-step, so its
// Pressure is left zero rather than scored.
func (r *Runner) summary(err error) (*Summary, error) {
	sum := &Summary{
		StartStep:     r.startStep,
		Steps:         r.sys.Steps - r.startStep,
		InitialEnergy: r.e0,
		FinalEnergy:   r.sys.TotalEnergy(),
		MSD:           r.msd.Value(),
	}
	if r.tempSamples > 0 {
		sum.MeanTemperature = r.tempSum / float64(r.tempSamples)
	}
	if r.traj != nil {
		sum.FramesWritten = r.traj.Frames()
	}
	if r.rdf != nil {
		sum.RDFCenters, sum.RDF = r.rdf.Result()
	}
	if err != nil {
		return sum, fmt.Errorf("mdrun: %w", err)
	}
	sum.Pressure = md.PressureOver(r.nl, r.sys.P, r.sys.Pos, r.sys.Temperature())
	return sum, nil
}
