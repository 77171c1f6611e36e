package mdrun

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/lattice"
)

// cancelOnWrite cancels a context the first time it is written to —
// a deterministic way to cancel a run at a known step boundary.
type cancelOnWrite struct {
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.cancel()
	return len(p), nil
}

func ctxTestConfig() Config {
	return Config{
		Atoms: 108, Density: 0.8442, Temperature: 0.728,
		Lattice: lattice.FCC, Seed: 11,
		Cutoff: 2.2, Dt: 0.004, Shifted: true,
		Method: Direct,
	}
}

// TestRunContextCancelStopsWithinOneStep pins the cancellation
// latency contract: a context cancelled during step 1's trajectory
// write stops the run at the very next step boundary — after exactly
// one completed step, not at run end.
func TestRunContextCancelStopsWithinOneStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &cancelOnWrite{cancel: cancel}

	cfg := ctxTestConfig()
	cfg.Trajectory = w
	cfg.TrajectoryEvery = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	sum, err := r.RunContext(ctx, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if sum.Steps != 1 {
		t.Fatalf("completed %d steps, want exactly 1 (cancel caught at next boundary)", sum.Steps)
	}
}

// TestRunContextPreCancelled pins that an already-cancelled context
// never starts stepping.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := New(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sum, err := r.RunContext(ctx, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if sum.Steps != 0 {
		t.Fatalf("completed %d steps, want 0", sum.Steps)
	}
}

// TestRunContextDeadlineParallel pins the deadline path through the
// parallel engine, and that cancellation plus Close leaves no pool
// goroutines behind.
func TestRunContextDeadlineParallel(t *testing.T) {
	base := runtime.NumGoroutine()

	cfg := ctxTestConfig()
	cfg.Method = Direct
	cfg.Workers = 3
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	sum, err := r.RunContext(ctx, 1_000_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want DeadlineExceeded", err)
	}
	if sum.Steps >= 1_000_000 {
		t.Fatal("deadline did not shorten the run")
	}
	r.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunBackgroundUnchanged pins that the ctx-free Run path is the
// background-context path (no behavioural change for existing users).
func TestRunBackgroundUnchanged(t *testing.T) {
	r1, err := New(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := New(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	s1, err := r1.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r2.RunContext(context.Background(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if s1.FinalEnergy != s2.FinalEnergy || s1.Steps != s2.Steps {
		t.Fatalf("Run and RunContext diverge: %+v vs %+v", s1, s2)
	}
}
