package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/guard"
)

// TestDrainQuiesces pins the typed graceful-shutdown seam: Drain stops
// admission (Submit sheds with ErrClosed), lets every queued and
// in-flight replica reach a terminal state, and leaves no goroutines
// behind.
func TestDrainQuiesces(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{MaxInflight: 2, QueueDepth: 8, WorkerBudget: 2})
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), Replica{ID: i, Guard: replicaCfg(uint64(300 + i)), Steps: 15})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Post-drain: every submitted replica is terminal, new work sheds.
	for i, tk := range tickets {
		res := tk.Wait()
		if res.State != Succeeded && res.State != Recovered {
			t.Fatalf("replica %d not terminal-ok after Drain: %v (%v)", i, res.State, res.Err)
		}
	}
	if _, err := s.Submit(context.Background(), Replica{ID: 99, Guard: replicaCfg(1), Steps: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrClosed", err)
	}
	// A second Drain and a Close observe the quiesced state immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	s.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked after Drain: %d before, %d after", before, g)
	}
}

// TestDrainDeadlineExpires pins the bounded half of the contract: a
// Drain whose context expires while replicas are still running returns
// ctx.Err() without waiting, and the teardown completes in the
// background once the replicas finish — so the scheduler's workers do
// not leak even when no one calls Close afterwards.
func TestDrainDeadlineExpires(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{MaxInflight: 1, QueueDepth: 4, WorkerBudget: 1})
	tk, err := s.Submit(context.Background(), Replica{ID: 0, Guard: replicaCfg(42), Steps: 400})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with expired deadline = %v, want DeadlineExceeded", err)
	}

	// The replica still runs to completion; the scheduler's workers
	// then exit without any further call.
	res := tk.Wait()
	if res.State != Succeeded && res.State != Recovered {
		t.Fatalf("replica after timed-out Drain: %v (%v)", res.State, res.Err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked after timed-out Drain: %d before, %d after", before, g)
	}
}

// TestResumeFromInitialSystem pins the resumable replica entry point:
// a replica handed the step-K state of a reference run and the
// remaining steps finishes bitwise identical to the uninterrupted run
// — and a fresh Clone is adopted per attempt, so the caller's restored
// system is never mutated.
func TestResumeFromInitialSystem(t *testing.T) {
	const (
		total  = 30
		atStep = 12
	)
	gcfg := replicaCfg(777)

	// Uninterrupted oracle, and its state at the split point.
	sup, err := guard.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sup.Run(atStep)
	if err != nil {
		t.Fatal(err)
	}
	mid := sup.System().Clone()
	sup.Close()

	oracle, err := guard.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, _, err := oracle.Run(total); err != nil {
		t.Fatal(err)
	}

	midBefore := mid.Clone()
	rep := RunBatch(context.Background(), Config{MaxInflight: 1, QueueDepth: 1}, []Replica{
		{ID: 0, Guard: gcfg, Steps: total - atStep, InitialSystem: mid},
	})
	if rep.Succeeded+rep.Recovered != 1 {
		t.Fatalf("resumed replica did not finish: %v", rep)
	}
	res := rep.Replica(0)
	sameSystem(t, res.Final, oracle.System())
	// The restored state the caller holds is untouched.
	sameSystem(t, mid, midBefore)
}
