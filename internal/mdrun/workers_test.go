package mdrun

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/parallel"
)

func TestWithDefaultsOtherFieldsUnchanged(t *testing.T) {
	cfg := Config{Dt: 0.004}.withDefaults()
	if cfg.PairlistSkin != 0.4 ||
		cfg.TrajectoryEvery != 10 || cfg.SampleEvery != 10 {
		t.Fatalf("defaults regressed: %+v", cfg)
	}
}

func parallelBase(method ForceMethod, workers int) Config {
	return Config{
		Atoms: 108, Density: 0.8442, Temperature: 0.728,
		Lattice: lattice.FCC, Seed: 42,
		Cutoff: 2.5, Dt: 0.004,
		Method: method, Workers: workers,
	}
}

// serialKernel hand-wires the serial force kernel a method names, with
// the defaults Config applies (pairlist skin 0.4).
func serialKernel(t *testing.T, m ForceMethod, sys *md.System[float64]) func() float64 {
	t.Helper()
	switch m {
	case Direct:
		return func() float64 { return md.ComputeForces(sys.P, sys.Pos, sys.Acc) }
	case Pairlist:
		nl, err := md.NewNeighborList[float64](0.4)
		if err != nil {
			t.Fatal(err)
		}
		return func() float64 { return nl.Forces(sys.P, sys.Pos, sys.Acc) }
	}
	t.Fatalf("no serial kernel for %v", m)
	return nil
}

// serialReference hand-steps the serial kernel m names for steps steps
// from the parallelBase initial state.
func serialReference(t *testing.T, m ForceMethod, steps int) *md.System[float64] {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: 108, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	forces := serialKernel(t, m, ref)
	for s := 0; s < steps; s++ {
		ref.StepWith(forces)
	}
	return ref
}

// checkRouting runs m at the given worker count against the serial
// reference: Workers 0 and 1 must run the serial kernel with no pool,
// bitwise equal to hand-stepping it; Workers >= 2 must shard on a pool
// of that size and match the serial physics to rounding.
func checkRouting(t *testing.T, m ForceMethod, workers, steps int, ref *md.System[float64]) {
	t.Helper()
	cfg := parallelBase(m, workers)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if sharded := workers > 1; (r.engine != nil) != sharded {
		t.Fatalf("engine built = %v, want %v", r.engine != nil, sharded)
	}
	if want := max(workers, 1); r.Workers() != want {
		t.Fatalf("Workers() = %d, want %d", r.Workers(), want)
	}
	sum, err := r.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 1 {
		if rel := math.Abs(sum.FinalEnergy-ref.TotalEnergy()) / (1 + math.Abs(ref.TotalEnergy())); rel > 1e-10 {
			t.Errorf("final energy %v vs serial %v (rel %v)", sum.FinalEnergy, ref.TotalEnergy(), rel)
		}
		return
	}
	if sum.FinalEnergy != ref.TotalEnergy() {
		t.Fatalf("final energy %v differs bitwise from the serial kernel's %v", sum.FinalEnergy, ref.TotalEnergy())
	}
	for i := 0; i < ref.N(); i++ {
		if r.System().Pos.At(i) != ref.Pos.At(i) || r.System().Vel.At(i) != ref.Vel.At(i) {
			t.Fatalf("atom %d differs bitwise from the serial kernel", i)
		}
	}
}

// TestWithDefaultsWorkersClamp pins where the worker count resolves:
// withDefaults leaves Workers as given (the "0 = one per CPU" reading
// belongs to the callers that offer it), and the runner treats any
// count <= 1 as serial and clamps large pools to parallel.MaxWorkers.
func TestWithDefaultsWorkersClamp(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1},
		{-3, 1},
		{1, 1},
		{5, 5},
		{1 << 20, parallel.MaxWorkers},
	}
	for _, c := range cases {
		if got := (Config{Workers: c.in}).withDefaults().Workers; got != c.in {
			t.Errorf("withDefaults Workers %d -> %d, want unchanged", c.in, got)
		}
		r, err := New(parallelBase(Direct, c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Workers(); got != c.want {
			t.Errorf("runner Workers %d -> %d, want %d", c.in, got, c.want)
		}
		r.Close()
	}
}

// TestWorkersOneRoutesToSerialKernel pins the routing contract for
// Direct: Workers 0 and 1 run the serial half-loop kernel byte for
// byte and create no worker pool.
func TestWorkersOneRoutesToSerialKernel(t *testing.T) {
	const steps = 12
	ref := serialReference(t, Direct, steps)
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			checkRouting(t, Direct, workers, steps, ref)
		})
	}
}

// TestWorkersOneRoutesSerialOtherMethods checks the same serial
// routing for the pairlist method.
func TestWorkersOneRoutesSerialOtherMethods(t *testing.T) {
	const steps = 10
	for _, m := range []ForceMethod{Pairlist} {
		ref := serialReference(t, m, steps)
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/w%d", m, workers), func(t *testing.T) {
				checkRouting(t, m, workers, steps, ref)
			})
		}
	}
}

// TestParallelMethodsMatchSerialPhysics runs every method sharded over
// several workers and pins the energies to the serial kernel's to
// rounding.
func TestParallelMethodsMatchSerialPhysics(t *testing.T) {
	const steps = 15
	for _, m := range []ForceMethod{Direct, Pairlist} {
		ref := serialReference(t, m, steps)
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/w%d", m, workers), func(t *testing.T) {
				checkRouting(t, m, workers, steps, ref)
			})
		}
	}
}

// TestParallelMethodStrings pins that sharding is not part of the
// method vocabulary: the retired par* spellings, the retired
// mixed-precision ones and the retired cell-grid method are rejected
// by ParseMethod.
func TestParallelMethodStrings(t *testing.T) {
	for _, bad := range []string{"", "cellgrid", "pardirect", "parpairlist", "parcellgrid", "pairlist-f32"} {
		if _, err := ParseMethod(bad); err == nil {
			t.Errorf("ParseMethod(%q) accepted", bad)
		}
	}
}

func TestRunnerCloseIdempotent(t *testing.T) {
	r, err := New(parallelBase(Direct, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(2); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()
}
