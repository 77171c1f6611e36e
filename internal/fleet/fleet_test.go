package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/sim"
)

// replicaCfg is a small, fast supervised-run config; distinct seeds
// give distinct ensemble members.
func replicaCfg(seed uint64) guard.Config {
	return guard.Config{
		Run: mdrun.Config{
			Atoms: 108, Density: 0.8442, Temperature: 0.728,
			Lattice: lattice.FCC, Seed: seed,
			Cutoff: 2.2, Dt: 0.004, Shifted: true,
			Method: mdrun.Direct, Workers: 1,
		},
		CheckEvery: 5,
	}
}

func sameSystem(t *testing.T, a, b *md.System[float64]) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("nil system (a=%v b=%v)", a == nil, b == nil)
	}
	if a.Steps != b.Steps {
		t.Fatalf("steps %d != %d", a.Steps, b.Steps)
	}
	for i := 0; i < a.N(); i++ {
		if a.Pos.At(i) != b.Pos.At(i) || a.Vel.At(i) != b.Vel.At(i) || a.Acc.At(i) != b.Acc.At(i) {
			t.Fatalf("atom %d state differs: pos %v vs %v", i, a.Pos.At(i), b.Pos.At(i))
		}
	}
	if a.PE != b.PE || a.KE != b.KE {
		t.Fatalf("energy differs: PE %v vs %v, KE %v vs %v", a.PE, b.PE, a.KE, b.KE)
	}
}

// TestBatchIsolatesPoisonedReplica is the pinned fault-isolation
// acceptance test: 8 replicas, a NaN fault injected into exactly one;
// the other 7 must succeed cleanly and match their unbatched runs
// bitwise — no cross-replica contamination.
func TestBatchIsolatesPoisonedReplica(t *testing.T) {
	const (
		n        = 8
		poisoned = 3
		steps    = 20
	)
	reps := make([]Replica, n)
	for i := range reps {
		reps[i] = Replica{ID: i, Guard: replicaCfg(uint64(100 + i)), Steps: steps}
	}
	reps[poisoned].Guard.Run.Faults = faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{AtCall: 7},
	})

	rep := RunBatch(context.Background(), Config{
		MaxInflight: 4, QueueDepth: n,
	}, reps)

	if rep.Shed != 0 {
		t.Fatalf("unexpected shedding: %v", rep)
	}
	if rep.Succeeded != n-1 {
		t.Fatalf("want %d clean successes, got %v", n-1, rep)
	}
	if rep.Recovered+rep.Failed != 1 {
		t.Fatalf("want 1 recovered-or-failed, got %v", rep)
	}
	pr := rep.Replica(poisoned)
	if pr.State != Recovered && pr.State != Failed {
		t.Fatalf("poisoned replica state %v", pr.State)
	}
	if pr.Report == nil || pr.Report.Counts.Count(sim.IncidentNaN) == 0 {
		t.Fatalf("poisoned replica's NaN incident not recorded: %+v", pr.Report)
	}
	if rep.Incidents.Count(sim.IncidentNaN) == 0 {
		t.Fatalf("batch report lost the NaN incident: %v", rep)
	}

	// Clean replicas must match unbatched supervised runs bitwise.
	for i := 0; i < n; i++ {
		if i == poisoned {
			continue
		}
		r := rep.Replica(i)
		if r.State != Succeeded {
			t.Fatalf("replica %d: %v (%v)", i, r.State, r.Err)
		}
		sup, err := guard.New(replicaCfg(uint64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sup.Run(steps); err != nil {
			t.Fatalf("unbatched replica %d: %v", i, err)
		}
		sameSystem(t, r.Final, sup.System())
		sup.Close()
	}
}

// delayedReplica is a replica whose parallel workers are slowed by an
// injected straggler fault on every call.
func delayedReplica(id int, steps int, delay time.Duration) Replica {
	cfg := replicaCfg(uint64(200 + id))
	cfg.Run.Method = mdrun.Direct
	cfg.Run.Workers = 2
	cfg.Run.Faults = faults.NewRegistry(uint64(id) + 1).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Delay, Delay: delay,
		Trigger: faults.Trigger{FromCall: 1},
	})
	return Replica{ID: id, Guard: cfg, Steps: steps}
}

// TestOverloadShedsAndTimeoutCancels is the pinned overload acceptance
// test: with 2 inflight slots and 16 submissions of straggler-faulted
// replicas, the excess is shed with ErrOverloaded (not deadlocked) and
// an admitted replica exceeding the per-replica timeout is cancelled
// within one MD step.
func TestOverloadShedsAndTimeoutCancels(t *testing.T) {
	const (
		n     = 16
		steps = 50
		delay = 50 * time.Millisecond
	)
	reps := make([]Replica, n)
	for i := range reps {
		reps[i] = delayedReplica(i, steps, delay)
	}
	rep := RunBatch(context.Background(), Config{
		MaxInflight: 2, QueueDepth: 2,
		ReplicaTimeout: 150 * time.Millisecond,
	}, reps)

	// Admission capacity is 2 inflight + 2 queued; the stragglers hold
	// their slots far longer than submission takes, so at least
	// n - 2*(inflight+queue) replicas must shed. No replica may hang.
	if rep.Shed < n-8 {
		t.Fatalf("want >= %d shed, got %v", n-8, rep)
	}
	if int64(rep.Shed) != rep.Incidents.Count(sim.IncidentShed) {
		t.Fatalf("shed count %d not mirrored in incident log: %v", rep.Shed, rep)
	}
	sawOverload, sawDeadline := false, false
	for i := range rep.Results {
		r := &rep.Results[i]
		switch r.State {
		case Shed:
			if !errors.Is(r.Err, ErrOverloaded) {
				t.Fatalf("shed replica %d error %v", r.ID, r.Err)
			}
			sawOverload = true
		case Failed:
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("failed replica %d error %v", r.ID, r.Err)
			}
			sawDeadline = true
			// Cancelled within one MD step: with ~delay per step and a
			// 3-step-budget deadline, the run must stop in the first
			// watchdog segment, nowhere near the requested 50 steps.
			if r.Report == nil {
				t.Fatalf("replica %d: no report", r.ID)
			}
			last := r.Report.Events[len(r.Report.Events)-1]
			if last.Kind != sim.IncidentCancelled {
				t.Fatalf("replica %d last event %v, want cancelled", r.ID, last.Kind)
			}
			if last.Step >= steps/2 {
				t.Fatalf("replica %d cancelled only at step %d of %d", r.ID, last.Step, steps)
			}
		case Succeeded, Recovered:
			t.Fatalf("replica %d finished despite straggler+deadline: %v", r.ID, r.State)
		}
	}
	if !sawOverload || !sawDeadline {
		t.Fatalf("missing outcomes (overload %v, deadline %v): %v", sawOverload, sawDeadline, rep)
	}
	if rep.Incidents.Count(sim.IncidentCancelled) == 0 {
		t.Fatalf("no cancellation incident in batch log: %v", rep)
	}
}

// TestTransientFailureResubmitsWithBackoff pins the fleet-level retry:
// a replica whose guard always gives up (persistent NaN) is resubmitted
// once, and then reported failed.
func TestTransientFailureResubmitsWithBackoff(t *testing.T) {
	cfg := replicaCfg(42)
	cfg.MaxRetries = 1
	cfg.Run.Faults = faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{FromCall: 1},
	})

	rep := RunBatch(context.Background(), Config{MaxInflight: 1},
		[]Replica{{ID: 0, Guard: cfg, Steps: 10}})

	r := rep.Replica(0)
	if r.State != Failed {
		t.Fatalf("state %v, want failed", r.State)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (1 + 1 resubmit)", r.Attempts)
	}
	if got := r.Incidents.Count(sim.IncidentResubmit); got != 1 {
		t.Fatalf("resubmit incidents %d, want 1", got)
	}
}

// TestInvalidConfigIsPermanent pins that construction failures are not
// retried.
func TestInvalidConfigIsPermanent(t *testing.T) {
	cfg := replicaCfg(1)
	cfg.Run.Atoms = -5
	rep := RunBatch(context.Background(), Config{MaxInflight: 1},
		[]Replica{{ID: 0, Guard: cfg, Steps: 5}})
	r := rep.Replica(0)
	if r.State != Failed || r.Attempts != 1 {
		t.Fatalf("want 1 failed attempt, got state %v attempts %d (%v)", r.State, r.Attempts, r.Err)
	}
}

// TestCancelledBatchLeavesNoGoroutines is the shutdown satellite: a
// batch of parallel-method replicas cancelled mid-step must wind down
// every worker-pool goroutine.
func TestCancelledBatchLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{MaxInflight: 2, QueueDepth: 8})
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(ctx, delayedReplica(i, 200, 20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	time.Sleep(30 * time.Millisecond) // let replicas get in flight
	cancel()
	for _, tk := range tickets {
		r := tk.Wait()
		if r.State != Failed || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("replica %d: state %v err %v, want cancelled failure", r.ID, r.State, r.Err)
		}
	}
	s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseDuringInflightBatch pins that Close while replicas are in
// flight (and while another goroutine races Submits against it) drains
// cleanly: every admitted replica still resolves, later Submits shed
// with ErrClosed, and nothing panics under -race.
func TestCloseDuringInflightBatch(t *testing.T) {
	s := New(Config{MaxInflight: 2, QueueDepth: 4})
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), delayedReplica(i, 3, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	racing := make(chan error, 1)
	go func() {
		var lastErr error
		for i := 0; i < 100; i++ {
			_, err := s.Submit(context.Background(), delayedReplica(100+i, 1, time.Millisecond))
			if err != nil {
				lastErr = err
			}
		}
		racing <- lastErr
	}()
	s.Close()
	if err := <-racing; err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) {
		t.Fatalf("racing submit returned unexpected error: %v", err)
	}
	for _, tk := range tickets {
		r := tk.Wait()
		if r.State == Pending {
			t.Fatalf("replica %d left pending after Close", r.ID)
		}
	}
	if _, err := s.Submit(context.Background(), delayedReplica(999, 1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestWorkerShare pins the shared-budget division.
func TestWorkerShare(t *testing.T) {
	s := New(Config{MaxInflight: 4, WorkerBudget: 8})
	defer s.Close()
	if got := s.workerShare(); got != 2 {
		t.Fatalf("share %d, want 2", got)
	}
	s2 := New(Config{MaxInflight: 8, WorkerBudget: 2})
	defer s2.Close()
	if got := s2.workerShare(); got != 1 {
		t.Fatalf("share %d, want 1 (floor)", got)
	}
}

// TestBatchReportPercentiles pins the nearest-rank percentile math and
// state counting on a synthetic result set.
func TestBatchReportPercentiles(t *testing.T) {
	results := make([]Result, 10)
	for i := range results {
		results[i] = Result{ID: i, State: Succeeded, Wall: time.Duration(i+1) * time.Millisecond}
	}
	results[9].State = Shed
	results[9].Wall = 0
	rep := buildReport(results, 123*time.Millisecond)
	if rep.Succeeded != 9 || rep.Shed != 1 {
		t.Fatalf("counts: %v", rep)
	}
	if rep.WallP50 != 5*time.Millisecond {
		t.Fatalf("p50 %v, want 5ms", rep.WallP50)
	}
	if rep.WallP90 != 8*time.Millisecond {
		t.Fatalf("p90 %v, want 8ms", rep.WallP90)
	}
	if rep.WallMax != 9*time.Millisecond {
		t.Fatalf("max %v, want 9ms", rep.WallMax)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// TestSharedBuildEngineBitwise pins that batching cannot move a
// replica: batched pairlist replicas, run concurrently over one worker
// budget with each building its neighbor list on its own force path,
// must match unbatched supervised runs (serial cell-binned builds)
// bitwise.
func TestSharedBuildEngineBitwise(t *testing.T) {
	const (
		n     = 6
		steps = 25
	)
	// 500 atoms: box ≈ 8.4 with cutoff+skin ≈ 2.6 gives a 3³ grid, so
	// every replica runs the real cell-binned build, not the small-box
	// fallback.
	pairCfg := func(seed uint64) guard.Config {
		g := replicaCfg(seed)
		g.Run.Atoms = 500
		g.Run.Method = mdrun.Pairlist
		return g
	}
	reps := make([]Replica, n)
	for i := range reps {
		reps[i] = Replica{ID: i, Guard: pairCfg(uint64(300 + i)), Steps: steps}
	}
	s := New(Config{MaxInflight: 3, QueueDepth: n, WorkerBudget: 4})
	rep := s.RunBatch(context.Background(), reps)
	s.Close()
	if rep.Succeeded != n {
		t.Fatalf("want %d clean successes, got %v", n, rep)
	}
	for i := 0; i < n; i++ {
		r := rep.Replica(i)
		sup, err := guard.New(pairCfg(uint64(300 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sup.Run(steps); err != nil {
			t.Fatalf("unbatched replica %d: %v", i, err)
		}
		sameSystem(t, r.Final, sup.System())
		sup.Close()
	}
}

// TestSchedulerLeaksNoIdlePool guards the scheduler's goroutine
// footprint: New starts exactly one goroutine per inflight slot — no
// pool sized by WorkerBudget sits idle beside them — and a closed
// scheduler leaves none of them behind.
func TestSchedulerLeaksNoIdlePool(t *testing.T) {
	before := settledGoroutines()
	idle := New(Config{MaxInflight: 2, WorkerBudget: 4})
	if added := runtime.NumGoroutine() - before; added != 2 {
		t.Errorf("New(MaxInflight 2, WorkerBudget 4) added %d goroutines, want 2", added)
	}
	idle.Close()
	for i := 0; i < 3; i++ {
		s := New(Config{MaxInflight: 2, WorkerBudget: 4})
		rep := s.RunBatch(context.Background(), []Replica{
			{ID: 0, Guard: replicaCfg(1), Steps: 2},
		})
		s.Close()
		if rep.Succeeded != 1 {
			t.Fatalf("round %d: %v", i, rep)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// changing, so goroutines other tests left winding down do not skew an
// exact count taken after it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
