// Package fleet is a fault-isolated batch replica scheduler: it runs
// many concurrent mdrun replicas — a parameter sweep, a replica-exchange
// ensemble, the paper's "many short runs" serving shape — over one
// bounded worker budget, without letting any single replica sink its
// siblings or the process.
//
// The scheduler composes the layers below it rather than re-implement
// them:
//
//   - each replica runs under its own guard.Supervisor, so the
//     watchdog / checkpoint-rollback / escalation ladder from
//     internal/guard applies per replica;
//   - each replica gets its own context, carrying the batch
//     cancellation and an optional per-replica deadline; the context is
//     threaded through mdrun's step loop and the parallel worker pool,
//     so a cancelled or timed-out replica stops within one MD step;
//   - a replica-level recover converts any panic into a Failed result
//     instead of process death;
//   - a transient failure (a guard give-up that is not a cancellation)
//     is resubmitted once, immediately;
//   - admission is a bounded queue: when MaxInflight replicas are
//     running and QueueDepth more are waiting, Submit rejects new
//     replicas immediately with ErrOverloaded — load shedding, never
//     unbounded queueing or deadlock.
//
// Each replica produces a guard.RunReport; a batch aggregates them into
// a BatchReport (state counts, merged sim.IncidentLog, wall-time
// percentiles).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/sim"
)

// ErrOverloaded is returned by Submit when the admission queue is
// full. The caller sheds the replica (or retries later); the scheduler
// never queues unboundedly.
var ErrOverloaded = errors.New("fleet: overloaded")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("fleet: scheduler closed")

// ErrReplicaPanic wraps a panic recovered at the replica boundary.
var ErrReplicaPanic = errors.New("fleet: replica panicked")

// errConfig wraps replica-construction failures, which are permanent:
// resubmitting an invalid config cannot succeed.
var errConfig = errors.New("fleet: replica config rejected")

// maxResubmits is how many times a replica that failed transiently
// (guard gave up, worker panic — anything but cancellation or an
// invalid config) is resubmitted.
const maxResubmits = 1

// Config describes the scheduler.
type Config struct {
	// MaxInflight is how many replicas run concurrently. Default:
	// GOMAXPROCS-derived (runtime.NumCPU, at least 1).
	MaxInflight int

	// QueueDepth bounds the admission queue beyond the inflight set:
	// at most MaxInflight running plus QueueDepth waiting are admitted;
	// further Submits shed with ErrOverloaded. Zero defaults to
	// MaxInflight; negative means no queue (admit only what can run).
	QueueDepth int

	// WorkerBudget is the total host force-worker budget shared by the
	// inflight replicas. It bounds force workers only: a replica whose
	// Run.Workers is 0 ("auto") is assigned max(1,
	// WorkerBudget/MaxInflight) workers, and builds its neighbor list on
	// that same force path; explicit worker counts are respected. The
	// scheduler keeps no pool of its own. Default runtime.NumCPU().
	WorkerBudget int

	// ReplicaTimeout, when positive, is the per-replica deadline: a
	// replica exceeding it is cancelled (within one MD step) and
	// reported Failed with an error wrapping context.DeadlineExceeded.
	ReplicaTimeout time.Duration
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.NumCPU()
		if c.MaxInflight < 1 {
			c.MaxInflight = 1
		}
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = c.MaxInflight
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.NumCPU()
	}
	return c
}

// Replica is one unit of batch work: a supervised simulation plus how
// many steps to advance it.
type Replica struct {
	// ID tags the replica in results and reports. IDs are the caller's
	// namespace; the scheduler never interprets them.
	ID int

	// Guard is the supervised-run configuration, exactly as guard.New
	// takes it. Its Run.Faults injector, if any, should be private to
	// this replica (see faults.Registry.Clone) — a shared registry's
	// call numbering is global across replicas.
	Guard guard.Config

	// Steps is how many MD steps to advance.
	Steps int

	// InitialSystem, when non-nil, is the state the replica starts
	// from instead of a freshly generated lattice — the resume entry
	// point: the serving layer restores an interrupted job's latest
	// valid checkpoint and submits the remaining steps. Each attempt
	// adopts a fresh Clone, so a fleet-level resubmission restarts from
	// the same restored state rather than from wherever the failed
	// attempt left the adopted copy. The Guard.Run lattice-shape fields
	// (Atoms, Density, Lattice, Seed) are ignored on this path, exactly
	// as mdrun.NewFromSystem documents.
	InitialSystem *md.System[float64]
}

// State classifies a replica's outcome.
type State int

const (
	// Pending is the zero value: the replica has not finished.
	Pending State = iota
	// Succeeded is a clean run: no incidents at all.
	Succeeded
	// Recovered is a run that finished but survived at least one
	// incident (rollback, escalation, fleet resubmission).
	Recovered
	// Shed is a replica rejected at admission (ErrOverloaded); it
	// never ran.
	Shed
	// Failed is a replica whose final attempt errored: recovery budget
	// exhausted, deadline exceeded, cancelled, panicked, or invalid.
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Succeeded:
		return "succeeded"
	case Recovered:
		return "recovered"
	case Shed:
		return "shed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Result is one replica's outcome.
type Result struct {
	ID    int
	State State

	// Attempts counts guard runs performed (0 for a shed replica; >1
	// means fleet-level resubmission happened).
	Attempts int

	// Summary and Report come from the last guard attempt (nil for
	// shed replicas; Summary may be partial on failure).
	Summary *mdrun.Summary
	Report  *guard.RunReport

	// Final is a clone of the finished system state (nil unless the
	// replica succeeded or recovered) — what a replica-exchange or
	// sweep-analysis stage consumes, and what the no-contamination
	// tests compare bitwise against unbatched runs.
	Final *md.System[float64]

	// Incidents are the fleet-level incidents (shed, replica panic,
	// resubmission); guard-level incidents live in Report.Counts.
	Incidents sim.IncidentLog

	// Err is the terminal error for Shed/Failed replicas.
	Err error

	// Wall is the replica's wall-clock time in the scheduler (queue
	// wait included; zero for shed replicas).
	Wall time.Duration
}

// job carries one submitted replica through the queue.
type job struct {
	rep  Replica
	ctx  context.Context
	res  *Result
	done chan struct{}
}

// Ticket is a handle on a submitted replica.
type Ticket struct{ j *job }

// Wait blocks until the replica finishes and returns its result.
func (t *Ticket) Wait() *Result { <-t.j.done; return t.j.res }

// Scheduler runs submitted replicas over MaxInflight worker
// goroutines. Safe for concurrent Submit/Close.
type Scheduler struct {
	cfg   Config
	queue chan *job
	wg    sync.WaitGroup

	mu     sync.Mutex // guards closed, queue sends vs close
	closed bool

	// drained is closed by the (single) shutdown waiter once every
	// worker has exited; Close and Drain both wait on it, so a
	// timed-out Drain can return while a later Drain or Close still
	// observes the quiesced state.
	drained   chan struct{}
	drainOnce sync.Once
}

// New starts a scheduler with cfg.MaxInflight replica workers.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		drained: make(chan struct{}),
	}
	s.wg.Add(cfg.MaxInflight)
	for i := 0; i < cfg.MaxInflight; i++ {
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s
}

// shutdown stops admission (idempotently) and starts the single
// drain waiter that signals `drained` once every worker goroutine has
// exited. Both Close and Drain funnel through here; the waiter is what
// lets Drain give up at its deadline while the teardown completes in
// the background.
func (s *Scheduler) shutdown() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.drainOnce.Do(func() {
		go func() {
			s.wg.Wait()
			close(s.drained)
		}()
	})
}

// Close stops admission and waits for in-flight and queued replicas to
// finish. Idempotent; concurrent Submits shed with ErrClosed.
func (s *Scheduler) Close() {
	s.shutdown()
	<-s.drained
}

// Drain is graceful shutdown with a deadline: it stops admission
// (concurrent Submits shed with ErrClosed), lets queued and in-flight
// replicas run to their terminal states, and returns nil once the
// scheduler has fully quiesced — every worker goroutine exited. If ctx
// expires first, Drain returns ctx.Err() while the teardown continues
// in the background: the caller typically escalates by cancelling the
// contexts it submitted replicas under (a cancelled replica stops
// within one MD step and its latest checkpoint survives), after which
// the background teardown completes and a later Drain or Close
// observes the quiesced state immediately.
func (s *Scheduler) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.shutdown()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: drain: %w", ctx.Err())
	}
}

// Submit offers a replica to the admission queue without blocking: it
// returns a Ticket when admitted, or an error wrapping ErrOverloaded
// (queue full — load shedding) or ErrClosed. ctx bounds the replica's
// whole life, queue wait included; nil means context.Background().
func (s *Scheduler) Submit(ctx context.Context, r Replica) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{rep: r, ctx: ctx, done: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("fleet: replica %d: %w", r.ID, ErrClosed)
	}
	select {
	case s.queue <- j:
		return &Ticket{j: j}, nil
	default:
		return nil, fmt.Errorf("fleet: replica %d rejected, %d inflight + %d queued at capacity: %w",
			r.ID, s.cfg.MaxInflight, s.cfg.QueueDepth, ErrOverloaded)
	}
}

// RunBatch submits every replica and waits for the batch: replicas the
// queue cannot absorb are shed (recorded in the report with
// ErrOverloaded, never blocking the rest), the others run to their
// individual outcomes. The scheduler remains usable afterwards.
func (s *Scheduler) RunBatch(ctx context.Context, reps []Replica) *BatchReport {
	start := time.Now()
	results := make([]Result, len(reps))
	tickets := make([]*Ticket, len(reps))
	for i, r := range reps {
		t, err := s.Submit(ctx, r)
		if err != nil {
			results[i] = Result{ID: r.ID, State: Shed, Err: err}
			results[i].Incidents.Add(sim.IncidentShed, 1)
			continue
		}
		tickets[i] = t
	}
	//mdlint:ignore ctxloop each ticket resolves through its replica's context (deadline + batch ctx), so this wait is bounded per replica
	for i, t := range tickets {
		if t != nil {
			results[i] = *t.Wait()
		}
	}
	return buildReport(results, time.Since(start))
}

// RunBatch is the one-shot convenience: a fresh scheduler, one batch,
// clean shutdown.
func RunBatch(ctx context.Context, cfg Config, reps []Replica) *BatchReport {
	s := New(cfg)
	defer s.Close()
	return s.RunBatch(ctx, reps)
}

// runJob drives one admitted replica to a terminal state, resubmitting
// a transient failure.
func (s *Scheduler) runJob(j *job) {
	start := time.Now()
	res := &Result{ID: j.rep.ID}
	defer func() {
		res.Wall = time.Since(start)
		j.res = res
		close(j.done)
	}()

	for attempt := 0; ; attempt++ {
		sum, rep, final, err := s.attempt(j)
		res.Attempts = attempt + 1
		res.Summary, res.Report = sum, rep
		if err == nil {
			res.Err = nil
			res.Final = final
			if res.Incidents.Total() > 0 || (rep != nil && rep.Counts.Total() > 0) {
				res.State = Recovered
			} else {
				res.State = Succeeded
			}
			return
		}
		res.Err = err
		res.State = Failed
		if errors.Is(err, ErrReplicaPanic) {
			res.Incidents.Add(sim.IncidentReplicaPanic, 1)
		}
		if !transient(err) || attempt >= maxResubmits || j.ctx.Err() != nil {
			return
		}
		res.Incidents.Add(sim.IncidentResubmit, 1)
	}
}

// attempt performs one guard-supervised run of the replica, isolated:
// a panic anywhere inside becomes an error, and the per-replica
// deadline (if configured) bounds the run.
func (s *Scheduler) attempt(j *job) (sum *mdrun.Summary, rep *guard.RunReport, final *md.System[float64], err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: replica %d: %v", ErrReplicaPanic, j.rep.ID, rec)
		}
	}()
	ctx := j.ctx
	if s.cfg.ReplicaTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ReplicaTimeout)
		defer cancel()
	}
	gcfg := j.rep.Guard
	if gcfg.Run.Workers == 0 {
		gcfg.Run.Workers = s.workerShare()
	}
	var sup *guard.Supervisor
	if j.rep.InitialSystem != nil {
		// Resume path: adopt a clone so this attempt cannot disturb the
		// restored state a resubmission would need to start over from.
		sup, err = guard.NewFromSystem(j.rep.InitialSystem.Clone(), gcfg)
	} else {
		sup, err = guard.New(gcfg)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: replica %d: %v", errConfig, j.rep.ID, err)
	}
	defer sup.Close()
	sum, rep, err = sup.RunContext(ctx, j.rep.Steps)
	if err == nil {
		final = sup.System().Clone()
	}
	return sum, rep, final, err
}

// workerShare divides the shared worker budget evenly over the
// inflight slots — the per-replica default when Run.Workers is "auto".
func (s *Scheduler) workerShare() int {
	share := s.cfg.WorkerBudget / s.cfg.MaxInflight
	if share < 1 {
		share = 1
	}
	return share
}

// transient reports whether a failed attempt is worth resubmitting:
// cancellation and deadline expiry are deliberate, invalid configs are
// permanent, everything else (exhausted recovery budget, panic, I/O)
// might succeed on a fresh attempt.
func transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, errConfig) {
		return false
	}
	return true
}
