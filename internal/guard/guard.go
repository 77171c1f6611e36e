// Package guard is a resilient run supervisor for mdrun simulations.
//
// The paper's 2007-era accelerators run the MD kernel with no
// reliability story at all: the GPU's device memory has no ECC, the
// Cell SPE local stores no parity, and a single flipped bit or crashed
// worker loses the whole run. This package supplies the host-side
// counterpart a production framework needs around such devices:
//
//   - a numerical-health watchdog that scans the dynamic state for
//     NaN/Inf every few steps and enforces energy-drift and
//     temperature-explosion thresholds,
//   - periodic atomic checkpoints (fsys.WriteAtomic: temp file +
//     fsync + rename, CRC32 trailer via the md format, retention of
//     the run's last M),
//   - automatic recovery: roll back to the newest CRC-valid
//     checkpoint the run itself wrote (corrupt ones are skipped, never
//     trusted; another run's files are never considered), then walk
//     an escalation ladder — retry as-is, halve the time step, fall
//     back to the serial force kernel — with exponential backoff,
//     giving up with a structured error after a configurable budget,
//   - a RunReport tallying every incident (internal/sim.IncidentLog)
//     so a run says not just that it finished but what it survived.
//
// Combined with internal/faults the package closes the loop: inject a
// fault, watch the supervisor detect, roll back, escalate, and finish.
package guard

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/fsys"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/sim"
	"repro/internal/vec"
)

// Config describes a supervised run.
type Config struct {
	// Run is the simulation to supervise, exactly as mdrun.New takes
	// it (including any armed fault injector).
	Run mdrun.Config

	// CheckEvery is the watchdog stride in steps: the run proceeds in
	// segments of this length, each followed by a health check.
	// Default 10.
	CheckEvery int

	// MaxEnergyDrift is the relative total-energy drift tolerated for
	// NVE runs (thermostatted runs exchange energy by design and are
	// not drift-checked). Default 0.05; negative disables.
	MaxEnergyDrift float64

	// MaxTempFactor flags a temperature explosion when the
	// instantaneous temperature exceeds this multiple of the target.
	// Default 100; negative disables.
	MaxTempFactor float64

	// CheckpointEvery is the checkpoint cadence in steps. Default 100.
	CheckpointEvery int

	// CheckpointDir, when non-empty, is where atomic checkpoint files
	// (ckpt-%09d.mdcp) are written; it is created if missing. When
	// empty, only the in-memory snapshot protects the run.
	CheckpointDir string

	// KeepCheckpoints bounds on-disk retention; older files are
	// pruned. Default 3.
	KeepCheckpoints int

	// MaxRetries is the recovery budget: how many rollback attempts
	// may be spent on one incident sequence before giving up.
	// Default 3 — exactly enough to traverse the full escalation
	// ladder (retry, halve dt, serial fallback).
	MaxRetries int

	// BaseBackoff is the sleep before the first retry; it doubles per
	// attempt. Zero disables sleeping.
	BaseBackoff time.Duration

	// Sleep is the backoff clock, replaceable for tests. Default
	// time.Sleep.
	Sleep func(time.Duration)

	// FS, when non-nil, replaces the real filesystem under the
	// checkpoint store — the one seam checkpoint faults are injected
	// through (fsys.Faulty). Nil means fsys.OS.
	FS fsys.FS

	// OnSegment, when non-nil, is called after every committed
	// (health-checked, non-rolled-back) segment with the observables at
	// that point — the per-job progress seam the serving layer streams
	// from. The callback runs on the supervising goroutine between
	// segments, so it must be fast and must not call back into the
	// Supervisor; it is never invoked for segments that are rolled
	// back, so consumers only ever see states that survived the
	// watchdog.
	OnSegment func(Progress)
}

// Progress is one committed-segment observation handed to
// Config.OnSegment: where the run is and what the state looks like.
type Progress struct {
	Step        int     // completed integration steps (absolute)
	Energy      float64 // total energy at the segment boundary
	Temperature float64 // instantaneous temperature
	PE          float64 // potential energy
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.CheckEvery == 0 {
		c.CheckEvery = 10
	}
	if c.MaxEnergyDrift == 0 {
		c.MaxEnergyDrift = 0.05
	}
	if c.MaxTempFactor == 0 {
		c.MaxTempFactor = 100
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 100
	}
	if c.KeepCheckpoints == 0 {
		c.KeepCheckpoints = 3
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Supervisor owns one supervised simulation.
type Supervisor struct {
	cfg    Config
	base   mdrun.Config // pristine run config (escalation reference)
	cur    mdrun.Config // config of the currently active runner
	runner *mdrun.Runner
	store  *store // nil without CheckpointDir
	snap   *md.System[float64]
	e0     float64
	report *RunReport
	ran    bool
}

// New builds the supervisor and the initial runner; the initial energy
// E0 the drift watchdog references is captured here.
func New(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	r, err := mdrun.New(cfg.Run)
	if err != nil {
		return nil, err
	}
	return supervise(cfg, r)
}

// NewFromSystem builds a supervisor that continues from an existing
// system state — the resume entry point the serving layer uses to pick
// an interrupted job back up from its latest valid checkpoint. The
// system is adopted (mdrun.NewFromSystem semantics: accelerations are
// kept, so a same-method resume continues the trajectory bit-exactly);
// the drift watchdog's E0 reference is the resume point's energy, and
// checkpoint files keep their absolute step numbering, so a resumed
// run's checkpoints slot into the same directory.
func NewFromSystem(sys *md.System[float64], cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	r, err := mdrun.NewFromSystem(sys, cfg.Run)
	if err != nil {
		return nil, err
	}
	return supervise(cfg, r)
}

// supervise wraps a built runner in a Supervisor (shared tail of New
// and NewFromSystem).
func supervise(cfg Config, r *mdrun.Runner) (*Supervisor, error) {
	s := &Supervisor{
		cfg:    cfg,
		base:   cfg.Run,
		cur:    cfg.Run,
		runner: r,
		snap:   r.System().Clone(),
		e0:     r.System().TotalEnergy(),
		report: &RunReport{FinalMethod: cfg.Run.Method, FinalWorkers: r.Workers(), FinalDt: cfg.Run.Dt},
	}
	if cfg.CheckpointDir != "" {
		st, err := newStore(cfg.CheckpointDir, cfg.KeepCheckpoints, cfg.FS)
		if err != nil {
			// Storage trouble degrades durability, it must not stop the
			// physics: run on the in-memory snapshot alone, like any
			// later checkpoint write failure, and record the incident.
			s.report.log(r.System().Steps, 0, sim.IncidentCheckpointWriteFail, err.Error())
		} else {
			s.store = st
		}
	}
	return s, nil
}

// Close releases the underlying runner. Safe to call more than once.
func (s *Supervisor) Close() {
	if s.runner != nil {
		s.runner.Close()
	}
}

// System exposes the live state of the currently active runner.
func (s *Supervisor) System() *md.System[float64] { return s.runner.System() }

// Report returns the (live) run report.
func (s *Supervisor) Report() *RunReport { return s.report }

// Run advances the simulation the given number of steps under
// supervision and returns a synthesized Summary, the RunReport, and
// the terminal error if the recovery budget was exhausted. The report
// is returned in every case. A Supervisor is single-use.
//
// The Summary's Steps/InitialEnergy/FinalEnergy/Pressure fields are
// authoritative; MeanTemperature is the step-weighted mean over
// committed (non-rolled-back) segments, and the MSD/RDF observables
// are not aggregated across recoveries (they reset at each rollback)
// so they are left zero.
func (s *Supervisor) Run(steps int) (*mdrun.Summary, *RunReport, error) {
	return s.RunContext(context.Background(), steps)
}

// RunContext is Run bounded by a context. Cancellation (or deadline
// expiry) is deliberate, not transient: it is logged as a single
// IncidentCancelled, never retried or escalated, and surfaces as an
// error wrapping ctx.Err() within one MD step of the cancellation —
// the property the batch scheduler's per-replica timeouts rely on.
func (s *Supervisor) RunContext(ctx context.Context, steps int) (*mdrun.Summary, *RunReport, error) {
	rep := s.report
	if s.ran {
		return nil, rep, fmt.Errorf("guard: Supervisor is single-use")
	}
	s.ran = true
	if steps < 0 {
		return nil, rep, fmt.Errorf("guard: steps must be non-negative, got %d", steps)
	}

	start := s.runner.System().Steps
	target := start + steps
	lastCkpt := start
	s.checkpoint() // step-0 baseline: recovery always has somewhere to go

	attempt := 0
	var tempSum, tempW float64
	var last *mdrun.Summary // newest committed segment
	for s.runner.System().Steps < target {
		sys := s.runner.System()
		seg := s.cfg.CheckEvery
		if rem := target - sys.Steps; rem < seg {
			seg = rem
		}
		sum, err := s.runner.RunContext(ctx, seg)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				rep.log(s.runner.System().Steps, attempt, sim.IncidentCancelled, err.Error())
				return nil, rep, fmt.Errorf("guard: run cancelled: %w", cerr)
			}
			rep.log(s.runner.System().Steps, attempt, sim.IncidentRunError, err.Error())
			if gerr := s.recover(ctx, &attempt, err); gerr != nil {
				return nil, rep, gerr
			}
			continue
		}
		if inc, detail := s.healthCheck(); inc >= 0 {
			rep.log(s.runner.System().Steps, attempt, inc, detail)
			if gerr := s.recover(ctx, &attempt, fmt.Errorf("guard: watchdog: %s", detail)); gerr != nil {
				return nil, rep, gerr
			}
			continue
		}
		// Segment committed: it contributes to the aggregate summary,
		// the ladder resets, and a checkpoint is taken when due.
		attempt = 0
		last = sum
		if sum.Steps > 0 {
			tempSum += sum.MeanTemperature * float64(sum.Steps)
			tempW += float64(sum.Steps)
		}
		cur := s.runner.System().Steps
		if cur-lastCkpt >= s.cfg.CheckpointEvery || cur >= target {
			s.checkpoint()
			lastCkpt = cur
		}
		if s.cfg.OnSegment != nil {
			s.cfg.OnSegment(Progress{
				Step:        cur,
				Energy:      sys.TotalEnergy(),
				Temperature: sys.Temperature(),
				PE:          sys.PE,
			})
		}
	}

	sys := s.runner.System()
	final := &mdrun.Summary{
		Steps:         steps,
		InitialEnergy: s.e0,
		FinalEnergy:   sys.TotalEnergy(),
	}
	if last != nil {
		// The last committed segment ended on the final state, and the
		// runner scored its pressure over the live list.
		final.Pressure = last.Pressure
	} else {
		final.Pressure = md.Pressure(sys.P, sys.Pos, sys.Temperature())
	}
	if tempW > 0 {
		final.MeanTemperature = tempSum / tempW
	}
	rep.Completed = true
	rep.FinalMethod = s.cur.Method
	rep.FinalWorkers = s.runner.Workers()
	rep.FinalDt = s.cur.Dt
	return final, rep, nil
}

// checkpoint snapshots the current (health-checked) state in memory
// and, when a store is configured, on disk. Disk failures are
// incidents, not fatal errors: the in-memory snapshot still guards the
// run.
func (s *Supervisor) checkpoint() {
	sys := s.runner.System()
	s.snap = sys.Clone()
	if s.store != nil {
		if err := s.store.save(sys); err != nil {
			s.report.log(sys.Steps, 0, sim.IncidentCheckpointWriteFail, err.Error())
			return
		}
	}
	s.report.CheckpointsWritten++
}

// healthCheck scans the live state; it returns the incident class and
// a description, or (-1, "") when healthy.
func (s *Supervisor) healthCheck() (sim.Incident, string) {
	sys := s.runner.System()
	for i := 0; i < sys.N(); i++ {
		if !finiteV3(sys.Pos.At(i)) || !finiteV3(sys.Vel.At(i)) || !finiteV3(sys.Acc.At(i)) {
			return sim.IncidentNaN, fmt.Sprintf("non-finite state at atom %d, step %d", i, sys.Steps)
		}
	}
	e := sys.TotalEnergy()
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return sim.IncidentNaN, fmt.Sprintf("non-finite energy at step %d", sys.Steps)
	}
	if s.cfg.MaxTempFactor > 0 && s.base.Temperature > 0 {
		if t := sys.Temperature(); t > s.cfg.MaxTempFactor*s.base.Temperature {
			return sim.IncidentTempExplosion,
				fmt.Sprintf("temperature %.3g exceeds %.3g×target at step %d", t, s.cfg.MaxTempFactor, sys.Steps)
		}
	}
	if s.base.Thermostat == mdrun.NVE && s.cfg.MaxEnergyDrift > 0 {
		ref := math.Abs(s.e0)
		if ref < 1 {
			ref = 1
		}
		if drift := math.Abs(e-s.e0) / ref; drift > s.cfg.MaxEnergyDrift {
			return sim.IncidentEnergyDrift,
				fmt.Sprintf("energy drift %.3g exceeds %.3g at step %d", drift, s.cfg.MaxEnergyDrift, sys.Steps)
		}
	}
	return -1, ""
}

// recover rolls back to the newest trustworthy state and rebuilds the
// runner one rung further up the escalation ladder. It returns nil
// when the run should continue, or the terminal give-up error once the
// retry budget is exhausted or the context is cancelled (backoff never
// outlives the caller's deadline).
func (s *Supervisor) recover(ctx context.Context, attempt *int, cause error) error {
	rep := s.report
	*attempt++
	if *attempt > s.cfg.MaxRetries {
		return fmt.Errorf("guard: giving up after %d recovery attempts: %w", s.cfg.MaxRetries, cause)
	}
	rep.Attempts++

	restored := s.restore()
	rep.Rollbacks++
	rep.log(restored.Steps, *attempt, sim.IncidentRollback,
		fmt.Sprintf("rolled back to step %d", restored.Steps))

	next, inc := s.rung(*attempt)
	rep.log(restored.Steps, *attempt, inc,
		fmt.Sprintf("attempt %d/%d: method %v, workers %d, dt %g", *attempt, s.cfg.MaxRetries, next.Method, max(next.Workers, 1), next.Dt))

	if s.cfg.BaseBackoff > 0 {
		s.cfg.Sleep(s.cfg.BaseBackoff << (*attempt - 1))
	}
	if cerr := ctx.Err(); cerr != nil {
		rep.log(restored.Steps, *attempt, sim.IncidentCancelled, cerr.Error())
		return fmt.Errorf("guard: run cancelled during recovery: %w", cerr)
	}

	s.runner.Close()
	r, err := mdrun.NewFromSystem(restored, next)
	if err != nil {
		return fmt.Errorf("guard: rebuilding runner after rollback: %w", err)
	}
	s.runner = r
	s.cur = next
	return nil
}

// restore returns the newest trustworthy state: the newest CRC-valid
// checkpoint this run published if a store is configured (corrupt
// files are skipped and logged; another run's files in the same
// directory are never considered), else a copy of the in-memory
// snapshot.
func (s *Supervisor) restore() *md.System[float64] {
	if s.store != nil {
		sys := s.store.recoverLatest(s.store.own(), func(name string, err error) {
			s.report.log(s.snap.Steps, 0, sim.IncidentCheckpointCorrupt,
				fmt.Sprintf("%s: %v", name, err))
		})
		if sys != nil {
			return sys
		}
	}
	return s.snap.Clone()
}

// rung maps a recovery attempt to its escalation strategy. The rungs
// reference the pristine base config, so the serial rung restores the
// original time step even if a halve-dt rung ran in between — a run
// that finishes serially is numerically the run the user asked for.
func (s *Supervisor) rung(attempt int) (mdrun.Config, sim.Incident) {
	switch {
	case attempt <= 1:
		return s.cur, sim.IncidentRetry
	case attempt == 2:
		c := s.cur
		c.Dt = s.base.Dt / 2
		return c, sim.IncidentDtHalved
	default:
		c := s.cur
		c.Workers = 1
		c.Dt = s.base.Dt
		return c, sim.IncidentSerialFallback
	}
}

func finiteV3(v vec.V3[float64]) bool {
	return finite(v.X) && finite(v.Y) && finite(v.Z)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
