package parallel

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/md"
)

// TestEngineContextCancelInterruptsDelayedWorker pins that a cancelled
// context cuts an injected straggler delay short: with a 10-second
// Delay fault armed on every worker call, a context cancelled after a
// few milliseconds must abort the evaluation almost immediately.
func TestEngineContextCancelInterruptsDelayedWorker(t *testing.T) {
	st, err := lattice.Generate(lattice.Config{
		N: 108, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: 2.2, Dt: 0.004}
	pos := md.CoordsFromV3(st.Pos)
	acc := md.MakeCoords[float64](pos.Len())

	e := New[float64](4)
	defer e.Close()
	e.SetInjector(faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Delay, Delay: 10 * time.Second,
		Trigger: faults.Trigger{FromCall: 1},
	}))
	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)
	time.AfterFunc(10*time.Millisecond, cancel)

	start := time.Now()
	_, err = e.ForcesDirect(p, pos, acc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v; delay fault was not interrupted", elapsed)
	}
}

// TestEngineCancelledContextSkipsWork pins that workers check the
// context before touching their shards: with a pre-cancelled context
// every kernel returns the context error.
func TestEngineCancelledContextSkipsWork(t *testing.T) {
	st, err := lattice.Generate(lattice.Config{
		N: 108, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: 2.2, Dt: 0.004}
	pos := md.CoordsFromV3(st.Pos)
	acc := md.MakeCoords[float64](pos.Len())

	e := New[float64](2)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	if _, err := e.ForcesDirect(p, pos, acc); !errors.Is(err, context.Canceled) {
		t.Fatalf("direct: %v, want context.Canceled", err)
	}
	nl, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ForcesPairlist(nl, p, pos, acc); !errors.Is(err, context.Canceled) {
		t.Fatalf("pairlist: %v, want context.Canceled", err)
	}

	// Clearing the context restores normal evaluation.
	e.SetContext(nil)
	if _, err := e.ForcesDirect(p, pos, acc); err != nil {
		t.Fatalf("after clearing context: %v", err)
	}
}
