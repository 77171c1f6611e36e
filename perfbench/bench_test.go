package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/lattice"
)

func TestSelfTimes(t *testing.T) {
	// run [0,100) has children a [10,40) and b [30,60), which overlap;
	// a has a child c [15,20). Overlap is covered once.
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: noParent},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 15, End: 20, Parent: 1},
	}
	want := map[string]time.Duration{"run": 50, "a": 25, "b": 30, "c": 5}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

// deterministicCounters are the per-layer counts that must repeat
// exactly between two traced runs of the same workload, seed and length.
var deterministicCounters = []string{
	"md.builds", "md.entries_per_atom", "md.xyz_bytes",
	"fsys.ops_per_job", "fsys.bytes_per_job", "guard.checkpoints_per_job",
}

func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced run twice")
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			var runs [2]*outcome
			for i := range runs {
				o, err := workloads[name].trace(context.Background(), env{seed: 7, seconds: 1, trace: true, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if o.tally.failed != 0 {
					t.Fatalf("output checks failed: %v", o.tally.problems)
				}
				runs[i] = o
			}
			for _, c := range deterministicCounters {
				a, ok := runs[0].metrics[c]
				if !ok {
					t.Fatalf("traced run does not report %s", c)
				}
				if b := runs[1].metrics[c]; a != b {
					t.Errorf("%s: %v, then %v", c, a.Value, b.Value)
				}
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range []mdWorkload{mdSteady, mdRebuild} {
		if w.config(1) != w.config(1) {
			t.Errorf("%s: the same seed gave different configurations", w.name)
		}
		a, b := w.config(1), w.config(2)
		if a.Seed == b.Seed {
			t.Fatalf("%s: seeds 1 and 2 give the same lattice seed", w.name)
		}
		sa, err := lattice.Generate(lattice.Config{N: a.Atoms, Density: a.Density, Temperature: a.Temperature, Kind: a.Lattice, Seed: a.Seed})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := lattice.Generate(lattice.Config{N: b.Atoms, Density: b.Density, Temperature: b.Temperature, Kind: b.Lattice, Seed: b.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if sa.Vel[0] == sb.Vel[0] {
			t.Errorf("%s: seeds 1 and 2 generate the same velocities", w.name)
		}
	}
	if jobSpec(1, 0) != jobSpec(1, 0) {
		t.Error("the same seed gave different job specs")
	}
	if jobSpec(1, 0) == jobSpec(2, 0) {
		t.Error("seeds 1 and 2 give the same first job")
	}
	if jobSpec(1, 0) == jobSpec(1, 1) {
		t.Error("two jobs of one run share a spec")
	}
}
