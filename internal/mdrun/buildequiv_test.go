// Build-equivalence pin: a guarded 2048-atom, 100-step pairlist run
// using the cell-binned neighbor-list build must match the seed
// behaviour — a serial run whose list is rebuilt with the reference
// O(N²) scan — bitwise in positions and energies. The parallel build's
// byte-identity with the serial one is pinned in internal/parallel
// (TestBuildPairlistWorkersBitwise, TestBuildPairlistForcesBitwise). The test lives in an external test package
// because it drives the guard supervisor, which imports mdrun.
//
// This file also rides the tier-1.5 race gate (scripts/verify.sh runs
// this package under -race), which is the "same pin under go test
// -race" half of the acceptance criteria.
package mdrun_test

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
)

const (
	equivAtoms = 2048
	equivSteps = 100
)

func equivConfig() mdrun.Config {
	return mdrun.Config{
		Atoms: equivAtoms, Density: 0.8442, Temperature: 0.728,
		Lattice: lattice.FCC, Seed: 101,
		Cutoff: 2.5, Dt: 0.004,
		Method: mdrun.Pairlist, PairlistSkin: 0.4,
	}
}

// referenceRun hand-steps the seed behaviour: serial pairlist forces
// over a neighbor list rebuilt with the reference O(N²) scan whenever
// it goes stale. Everything else (lattice, params, integrator) is
// exactly what mdrun.New assembles for the same config.
func referenceRun(t *testing.T) *md.System[float64] {
	t.Helper()
	cfg := equivConfig()
	st, err := lattice.Generate(lattice.Config{
		N: cfg.Atoms, Density: cfg.Density, Temperature: cfg.Temperature,
		Kind: cfg.Lattice, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: cfg.Cutoff, Dt: cfg.Dt}
	sys, err := md.NewSystem(st, p)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := md.NewNeighborList[float64](cfg.PairlistSkin)
	if err != nil {
		t.Fatal(err)
	}
	forces := func() float64 {
		if nl.Stale(sys.P, sys.Pos) {
			nl.BuildN2(sys.P, sys.Pos)
		}
		return nl.Forces(sys.P, sys.Pos, sys.Acc)
	}
	for s := 0; s < equivSteps; s++ {
		sys.StepWith(forces)
	}
	if nl.Builds() < 2 {
		t.Fatalf("reference run rebuilt only %d times; the pin would not exercise rebuild equivalence", nl.Builds())
	}
	return sys
}

// TestGuardedBuildEquivalencePin runs the guarded simulation with the
// serial cell-binned build and pins positions, PE, KE, and the summary
// energies bitwise against the O(N²)-build reference.
func TestGuardedBuildEquivalencePin(t *testing.T) {
	ref := referenceRun(t)

	t.Run("serial-cell-binned", func(t *testing.T) {
		sup, err := guard.New(guard.Config{Run: equivConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Close()
		sum, rep, err := sup.Run(equivSteps)
		if err != nil {
			t.Fatalf("guarded run failed: %v (%v)", err, rep)
		}
		if rep.Counts.Total() != 0 {
			t.Fatalf("guarded run logged incidents: %v", rep)
		}
		sys := sup.System()
		if sys.Steps != ref.Steps {
			t.Fatalf("steps %d != %d", sys.Steps, ref.Steps)
		}
		for i := 0; i < ref.N(); i++ {
			if sys.Pos.At(i) != ref.Pos.At(i) {
				t.Fatalf("position %d differs: %+v vs %+v", i, sys.Pos.At(i), ref.Pos.At(i))
			}
			if sys.Vel.At(i) != ref.Vel.At(i) {
				t.Fatalf("velocity %d differs: %+v vs %+v", i, sys.Vel.At(i), ref.Vel.At(i))
			}
		}
		if sys.PE != ref.PE || sys.KE != ref.KE {
			t.Fatalf("energy differs: PE %v vs %v, KE %v vs %v", sys.PE, ref.PE, sys.KE, ref.KE)
		}
		if want := ref.TotalEnergy(); sum.FinalEnergy != want {
			t.Fatalf("summary FinalEnergy %v, want %v", sum.FinalEnergy, want)
		}
	})
}
