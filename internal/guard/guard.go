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
//   - periodic checkpoints: an in-memory snapshot of the last
//     health-checked state, which is the one state recovery restores,
//     and, with a checkpoint directory, a file published with
//     fsys.WriteAtomic (temp file + fsync + rename, CRC32 trailer via
//     the md format, retention of the run's last M) that the run only
//     writes and prunes; LatestCheckpoint reads the directory back to
//     resume a job after the process that ran it died,
//   - automatic recovery: roll back to the snapshot, then walk an
//     escalation ladder — retry as-is, halve the time step, fall back
//     to the serial force kernel — giving up with a structured error
//     after a configurable budget,
//   - a RunReport tallying every incident (internal/sim.IncidentLog)
//     so a run says not just that it finished but what it survived.
//
// Combined with internal/faults the package closes the loop: inject a
// fault, watch the supervisor detect, roll back, escalate, and finish.
package guard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/fsys"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/sim"
	"repro/internal/vec"
)

// The watchdog's physics thresholds.
const (
	// maxEnergyDrift is the relative total-energy drift tolerated for
	// NVE runs (thermostatted runs exchange energy by design and are
	// not drift-checked).
	maxEnergyDrift = 0.05
	// maxTempFactor flags a temperature explosion when the
	// instantaneous temperature exceeds this multiple of the target.
	maxTempFactor = 100.0
)

// Config describes a supervised run.
type Config struct {
	// Run is the simulation to supervise, exactly as mdrun.New takes
	// it (including any armed fault injector). A Run.Trajectory
	// receives only committed frames: the supervisor holds each frame
	// until the next checkpoint is taken and copies it then, so a
	// rolled-back segment's frames are dropped rather than written.
	// The frames since the last checkpoint are also dropped when the
	// run gives up or is cancelled. A failed copy is a run error: the
	// run rolls back and retries, and gives up after MaxRetries
	// failed copies in a row; bytes a failed copy wrote stay in the
	// writer.
	Run mdrun.Config

	// CheckEvery is the watchdog stride in steps: the run proceeds in
	// segments of this length, each followed by a health check.
	// Default 10; negative is refused.
	CheckEvery int

	// CheckpointEvery is the checkpoint cadence in steps. Default 100;
	// negative is refused.
	CheckpointEvery int

	// CheckpointDir, when non-empty, is where atomic checkpoint files
	// (ckpt-%09d.mdcp) are written; it is created if missing. Rollback
	// always restores the in-memory snapshot, so the run only writes
	// and prunes these files: they are for resuming the run in a new
	// process (LatestCheckpoint).
	CheckpointDir string

	// KeepCheckpoints bounds on-disk retention; this run's older files
	// are pruned. Default 3; negative is refused.
	KeepCheckpoints int

	// MaxRetries is the recovery budget: how many rollback attempts
	// may be spent on one incident sequence before giving up.
	// Default 3 — exactly enough to traverse the full escalation
	// ladder (retry, halve dt, serial fallback); negative is refused.
	MaxRetries int

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

// withDefaults fills zero values. A negative setting is refused, not
// run: a negative CheckEvery asks the runner for a negative segment,
// so every rung of the ladder fails until the run gives up; a negative
// CheckpointEvery would checkpoint every segment; a negative
// KeepCheckpoints names no retention; a negative MaxRetries gives up
// at the first incident.
func (c Config) withDefaults() (Config, error) {
	if c.CheckEvery < 0 || c.CheckpointEvery < 0 || c.KeepCheckpoints < 0 || c.MaxRetries < 0 {
		return c, fmt.Errorf("guard: CheckEvery (%d), CheckpointEvery (%d), KeepCheckpoints (%d) and MaxRetries (%d) must not be negative (0 = default)",
			c.CheckEvery, c.CheckpointEvery, c.KeepCheckpoints, c.MaxRetries)
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 10
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
	return c, nil
}

// Supervisor owns one supervised simulation.
type Supervisor struct {
	cfg    Config
	base   mdrun.Config // pristine run config (escalation reference)
	cur    mdrun.Config // config of the currently active runner
	runner *mdrun.Runner
	store  *store              // nil without CheckpointDir
	snap   *md.System[float64] // the last checkpoint: what recovery restores
	e0     float64
	report *RunReport
	ran    bool

	// traj is the caller's trajectory writer, nil when the run writes
	// none. The runners write frames into pending, which checkpoint
	// copies to traj and recover drops.
	traj    io.Writer
	pending *bytes.Buffer
}

// New builds the supervisor and the initial runner; the initial energy
// E0 the drift watchdog references is captured here.
func New(cfg Config) (*Supervisor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	traj, pending := holdFrames(&cfg)
	r, err := mdrun.New(cfg.Run)
	if err != nil {
		return nil, err
	}
	return supervise(cfg, r, traj, pending)
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
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	traj, pending := holdFrames(&cfg)
	r, err := mdrun.NewFromSystem(sys, cfg.Run)
	if err != nil {
		return nil, err
	}
	return supervise(cfg, r, traj, pending)
}

// holdFrames points cfg's run at a frame buffer the supervisor owns
// and returns the caller's trajectory writer with it (both nil when the
// run writes no trajectory). Every runner the supervisor builds,
// escalation rungs included, writes into the buffer.
func holdFrames(cfg *Config) (io.Writer, *bytes.Buffer) {
	traj := cfg.Run.Trajectory
	if traj == nil {
		return nil, nil
	}
	pending := new(bytes.Buffer)
	cfg.Run.Trajectory = pending
	return traj, pending
}

// supervise wraps a built runner in a Supervisor (shared tail of New
// and NewFromSystem).
func supervise(cfg Config, r *mdrun.Runner, traj io.Writer, pending *bytes.Buffer) (*Supervisor, error) {
	s := &Supervisor{
		cfg:     cfg,
		base:    cfg.Run,
		cur:     cfg.Run,
		runner:  r,
		snap:    r.System().Clone(),
		e0:      r.System().TotalEnergy(),
		report:  &RunReport{FinalMethod: cfg.Run.Method, FinalWorkers: r.Workers(), FinalDt: cfg.Run.Dt},
		traj:    traj,
		pending: pending,
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
// supervision and returns the Summary, the RunReport, and the terminal
// error if the recovery budget was exhausted. The report is returned
// in every case. A Supervisor is single-use.
//
// The Summary is the active runner's (see mdrun.Summary), with Steps
// and InitialEnergy set to the supervised run's. A clean run's Summary
// is therefore the bare mdrun run's, field for field; after a rollback
// the runner is rebuilt, so the observables (MeanTemperature, MSD,
// RDF, FramesWritten) cover only the steps after StartStep, the step
// the last recovery restored.
func (s *Supervisor) Run(steps int) (*mdrun.Summary, *RunReport, error) {
	return s.RunContext(context.Background(), steps)
}

// RunContext is Run bounded by a context, with Run's Summary: the
// active runner's own. Cancellation (or deadline expiry) is
// deliberate, not transient: it is logged as a single
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
	copyFails := 0          // failed frame copies in a row; a commit does not reset it
	var last *mdrun.Summary // newest committed segment
	for s.runner.System().Steps < target {
		sys := s.runner.System()
		sum, err := s.runner.RunContext(ctx, min(s.cfg.CheckEvery, target-sys.Steps))
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
		// A due checkpoint first hands the held frames to the
		// caller's writer. A failed copy rolls back like a failed
		// trajectory write, on its own ladder count: the segments
		// that re-run before the checkpoint commit and reset attempt.
		cur := s.runner.System().Steps
		due := cur-lastCkpt >= s.cfg.CheckpointEvery || cur >= target
		if due {
			if err := s.copyFrames(); err != nil {
				rep.log(cur, copyFails+1, sim.IncidentRunError, err.Error())
				if gerr := s.recover(ctx, &copyFails, err); gerr != nil {
					return nil, rep, gerr
				}
				continue
			}
			copyFails = 0
		}
		// Segment committed: its Summary is the newest, the ladder
		// resets, and a checkpoint is taken when due.
		attempt = 0
		last = sum
		if due {
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

	if last == nil {
		// A 0-step run commits no segment; the runner still reports.
		var err error
		if last, err = s.runner.RunContext(ctx, 0); err != nil {
			return nil, rep, fmt.Errorf("guard: %w", err)
		}
	}
	last.Steps, last.InitialEnergy = steps, s.e0
	rep.Completed = true
	rep.FinalMethod = s.cur.Method
	rep.FinalWorkers = s.runner.Workers()
	rep.FinalDt = s.cur.Dt
	return last, rep, nil
}

// copyFrames hands the frames held since the last checkpoint to the
// caller's trajectory writer.
func (s *Supervisor) copyFrames() error {
	if s.pending == nil {
		return nil
	}
	if _, err := s.pending.WriteTo(s.traj); err != nil {
		return fmt.Errorf("guard: trajectory: %w", err)
	}
	return nil
}

// checkpoint snapshots the current (health-checked) state in memory
// and, when a store is configured, on disk. Disk failures are
// incidents, not fatal errors: recovery restores the in-memory
// snapshot, never the disk.
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
	if s.base.Temperature > 0 {
		if t := sys.Temperature(); t > maxTempFactor*s.base.Temperature {
			return sim.IncidentTempExplosion,
				fmt.Sprintf("temperature %.3g exceeds %.3g×target at step %d", t, maxTempFactor, sys.Steps)
		}
	}
	if s.base.Thermostat == mdrun.NVE {
		ref := math.Abs(s.e0)
		if ref < 1 {
			ref = 1
		}
		if drift := math.Abs(e-s.e0) / ref; drift > maxEnergyDrift {
			return sim.IncidentEnergyDrift,
				fmt.Sprintf("energy drift %.3g exceeds %.3g at step %d", drift, maxEnergyDrift, sys.Steps)
		}
	}
	return -1, ""
}

// recover rolls back to the in-memory snapshot of the last checkpoint
// and rebuilds the runner one rung further up the escalation ladder.
// It returns nil when the run should continue, or the terminal give-up
// error once the retry budget is exhausted or the context is
// cancelled.
func (s *Supervisor) recover(ctx context.Context, attempt *int, cause error) error {
	rep := s.report
	if s.pending != nil {
		s.pending.Reset() // the held frames belong to the rolled-back steps
	}
	*attempt++
	if *attempt > s.cfg.MaxRetries {
		return fmt.Errorf("guard: giving up after %d recovery attempts: %w", s.cfg.MaxRetries, cause)
	}

	restored := s.snap.Clone()
	rep.Rollbacks++
	rep.log(restored.Steps, *attempt, sim.IncidentRollback,
		fmt.Sprintf("rolled back to step %d", restored.Steps))

	next, inc := s.rung(*attempt)
	rep.log(restored.Steps, *attempt, inc,
		fmt.Sprintf("attempt %d/%d: method %v, workers %d, dt %g", *attempt, s.cfg.MaxRetries, next.Method, max(next.Workers, 1), next.Dt))

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
