package guard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/mdrun"
	"repro/internal/sim"
)

func ctxRunConfig(seed uint64) mdrun.Config {
	return mdrun.Config{
		Atoms: 108, Density: 0.8442, Temperature: 0.728,
		Lattice: lattice.FCC, Seed: seed,
		Cutoff: 2.2, Dt: 0.004, Shifted: true,
		Method: mdrun.Direct,
	}
}

// TestRunContextCancellationIsTerminal pins that cancellation is
// deliberate, not transient: no rollback, no escalation, a single
// IncidentCancelled, and an error wrapping context.Canceled.
func TestRunContextCancellationIsTerminal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sup, err := New(Config{Run: ctxRunConfig(5), CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	_, rep, err := sup.RunContext(ctx, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if rep.Rollbacks != 0 {
		t.Fatalf("cancellation triggered recovery: %v", rep)
	}
	if rep.Counts.Count(sim.IncidentCancelled) != 1 {
		t.Fatalf("cancelled incidents %d, want 1: %v", rep.Counts.Count(sim.IncidentCancelled), rep)
	}
	if rep.Completed {
		t.Fatal("cancelled run reported completed")
	}
}

// TestRunContextDeadlineUnderFaults pins the batch-serving composition:
// a straggler-faulted parallel run that exceeds its deadline is cut off
// within one segment, even while the injected delay is sleeping.
func TestRunContextDeadlineUnderFaults(t *testing.T) {
	cfg := ctxRunConfig(6)
	cfg.Method = mdrun.Direct
	cfg.Workers = 2
	cfg.Faults = faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Delay, Delay: time.Second,
		Trigger: faults.Trigger{FromCall: 1},
	})
	sup, err := New(Config{Run: cfg, CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, rep, err := sup.RunContext(ctx, 100)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
	if rep.Counts.Count(sim.IncidentCancelled) == 0 {
		t.Fatalf("no cancelled incident: %v", rep)
	}
}

// TestRunContextBackgroundCompletes pins that RunContext with a live
// context behaves exactly like Run.
func TestRunContextBackgroundCompletes(t *testing.T) {
	sup, err := New(Config{Run: ctxRunConfig(7), CheckEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sum, rep, err := sup.RunContext(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || sum.Steps != 20 {
		t.Fatalf("run did not complete: %v %v", sum, rep)
	}
	if rep.Counts.Total() != 0 {
		t.Fatalf("clean run logged incidents: %v", rep)
	}
}
