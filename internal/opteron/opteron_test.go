package opteron

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/sim"
)

func workload(t *testing.T, n, steps int) device.Workload {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cutoff := 2.5
	if 2*cutoff > st.Box {
		cutoff = st.Box / 2 * 0.99
	}
	return device.Workload{State: st, Cutoff: cutoff, Dt: 0.004, Steps: steps}
}

func TestRunMatchesReferencePhysics(t *testing.T) {
	w := workload(t, 108, 20)
	res, err := New(DefaultConfig()).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	// Reference trajectory with the same (full-loop) kernel.
	p := md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt}
	sys, err := md.NewSystem(w.State, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Steps; i++ {
		sys.StepWith(func() float64 { return md.ComputeForcesFull(sys.P, sys.Pos, sys.Acc) })
	}
	if rel := math.Abs(res.PE-sys.PE) / math.Abs(sys.PE); rel > 1e-12 {
		t.Fatalf("PE mismatch: device %v, reference %v (rel %v)", res.PE, sys.PE, rel)
	}
	if rel := math.Abs(res.KE-sys.KE) / math.Abs(sys.KE); rel > 1e-12 {
		t.Fatalf("KE mismatch: device %v, reference %v (rel %v)", res.KE, sys.KE, rel)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	w := workload(t, 64, 5)
	cpu := New(DefaultConfig())
	a, err := cpu.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cpu.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds() != b.Seconds() || a.PE != b.PE {
		t.Fatalf("nondeterministic result: %v/%v vs %v/%v", a.Seconds(), a.PE, b.Seconds(), b.PE)
	}
}

func TestRuntimeScalesQuadratically(t *testing.T) {
	cpu := New(DefaultConfig())
	small, err := cpu.Run(workload(t, 256, 5))
	if err != nil {
		t.Fatal(err)
	}
	big, err := cpu.Run(workload(t, 1024, 5))
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.Seconds() / small.Seconds()
	// 4x atoms -> ~16x work; allow slack for O(N) terms and cache.
	if ratio < 12 || ratio > 24 {
		t.Fatalf("runtime ratio 1024/256 atoms = %v, want ~16", ratio)
	}
}

func TestCachePenaltyGrowsPastL1(t *testing.T) {
	// Position arrays: 24 B/atom. 1024 atoms = 24 KB (fits 64 KB L1);
	// 4096 atoms = 96 KB (spills). The memory component per pass must
	// jump across that boundary.
	cpu := New(DefaultConfig())
	inL1, err := cpu.Run(workload(t, 1024, 2))
	if err != nil {
		t.Fatal(err)
	}
	outL1, err := cpu.Run(workload(t, 4096, 2))
	if err != nil {
		t.Fatal(err)
	}
	memFracIn := inL1.Time.Component("memory") / inL1.Seconds()
	memFracOut := outL1.Time.Component("memory") / outL1.Seconds()
	if memFracOut <= memFracIn {
		t.Fatalf("memory fraction did not grow past L1: %v (1024) vs %v (4096)", memFracIn, memFracOut)
	}
	if memFracOut < 0.02 {
		t.Fatalf("memory fraction at 4096 atoms = %v; cache model inert", memFracOut)
	}
}

func TestPairlistVariantFaster(t *testing.T) {
	ref := New(DefaultConfig())
	cfg := DefaultConfig()
	cfg.UsePairlist = true
	opt := New(cfg)
	w := workload(t, 500, 10)
	a, err := ref.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seconds() >= a.Seconds() {
		t.Fatalf("pairlist (%vs) not faster than reference (%vs)", b.Seconds(), a.Seconds())
	}
	// Same physics.
	if rel := math.Abs(a.PE-b.PE) / math.Abs(a.PE); rel > 1e-9 {
		t.Fatalf("pairlist PE diverged: %v vs %v", b.PE, a.PE)
	}
	if a.Variant != "reference" || b.Variant != "pairlist" {
		t.Fatalf("variants mislabeled: %q, %q", a.Variant, b.Variant)
	}
}

func TestRejectsInvalidWorkload(t *testing.T) {
	cpu := New(DefaultConfig())
	if _, err := cpu.Run(device.Workload{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	w := workload(t, 32, 1)
	w.Cutoff = -1
	if _, err := cpu.Run(w); err == nil {
		t.Fatal("negative cutoff accepted")
	}
}

func TestZeroStepsStillValid(t *testing.T) {
	res, err := New(DefaultConfig()).Run(workload(t, 32, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds() != 0 {
		t.Fatalf("zero steps took modeled time %v", res.Seconds())
	}
	if res.PE == 0 {
		t.Fatal("PE not evaluated for zero-step run")
	}
}

func TestLedgerPopulated(t *testing.T) {
	res, err := New(DefaultConfig()).Run(workload(t, 64, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Total() == 0 {
		t.Fatal("empty ledger after run")
	}
	// sqrt per pair per step is the signature of the Figure 4 kernel.
	wantSqrt := int64(64*63) * 3
	if got := res.Ledger.Count(sim.OpFSqrt); got != wantSqrt {
		t.Fatalf("fsqrt count = %d, want %d", got, wantSqrt)
	}
}

func TestExactCacheMatchesAnalyticModel(t *testing.T) {
	// The closed-form streaming model must agree with a full
	// set-associative simulation of the same traffic — below and above
	// the L1 capacity. (Above capacity the cyclic LRU worst case makes
	// both all-miss; below, both all-hit after the cold pass. Partial
	// alignment effects at the boundary are why this asserts a small
	// relative tolerance rather than equality.)
	for _, n := range []int{1024, 4096} {
		w := workload(t, n, 1)
		analytic, err := New(DefaultConfig()).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.ExactCache = true
		exact, err := New(cfg).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		a := analytic.Time.Component("memory")
		e := exact.Time.Component("memory")
		if a == 0 && e == 0 {
			continue
		}
		rel := math.Abs(a-e) / math.Max(a, e)
		if rel > 0.05 {
			t.Fatalf("n=%d: analytic memory %v vs exact %v (rel %v)", n, a, e, rel)
		}
		// Physics and compute identical either way.
		if analytic.PE != exact.PE || analytic.Time.Component("compute") != exact.Time.Component("compute") {
			t.Fatalf("n=%d: exact-cache mode changed non-memory results", n)
		}
	}
}

// TestPairlistBreakdownPinnedToN2Build pins the device model's modeled
// runtime against the neighbor-list build rework: a pairlist run (whose
// list is now built cell-binned) must reproduce — bitwise, including
// Breakdown.Total — a replica of the same run whose list is rebuilt
// with the reference O(N²) scan and whose interacting pairs are
// counted by the O(N²) scan instead of over the list rows. Identical
// pair sets and counts mean identical forces, identical ledgers, and
// identical cycle accounting; any drift here means the build rework
// changed the list or the row count missed a pair.
func TestPairlistBreakdownPinnedToN2Build(t *testing.T) {
	const steps = 20
	w := workload(t, 500, steps)
	cfg := DefaultConfig()
	cfg.UsePairlist = true
	res, err := New(cfg).Run(w)
	if err != nil {
		t.Fatal(err)
	}

	// Replica of Run's pairlist path with BuildN2-driven rebuilds.
	p := md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt}
	sys, err := md.NewSystem(w.State, p)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := md.NewNeighborList[float64](cfg.PairlistSkin)
	if err != nil {
		t.Fatal(err)
	}
	var ledger sim.Ledger
	forces := func() float64 {
		if nl.Stale(sys.P, sys.Pos) {
			nl.BuildN2(sys.P, sys.Pos)
		}
		pe := nl.Forces(sys.P, sys.Pos, sys.Acc)
		countPairlistForcePass(&ledger, sys.N(), nl.PairCount(), interactingPairs(sys.P, sys.Pos))
		return pe
	}
	for s := 0; s < steps; s++ {
		sys.StepWith(forces)
		countIntegration(&ledger, sys.N())
	}
	bd := sim.NewBreakdown()
	clock := sim.Clock{Hz: cfg.ClockHz}
	bd.Add("compute", clock.Seconds(ledger.Cycles(cfg.Costs)))
	memCycles, err := New(cfg).memoryModel(sys.N(), steps)
	if err != nil {
		t.Fatal(err)
	}
	bd.Add("memory", clock.Seconds(memCycles))

	if res.PE != sys.PE || res.KE != sys.KE {
		t.Fatalf("physics differs: PE %v vs %v, KE %v vs %v", res.PE, sys.PE, res.KE, sys.KE)
	}
	if got, want := res.Time.Total(), bd.Total(); got != want {
		t.Fatalf("Breakdown.Total differs: %v vs %v", got, want)
	}
	for _, label := range []string{"compute", "memory"} {
		if got, want := res.Time.Component(label), bd.Component(label); got != want {
			t.Fatalf("Breakdown %s differs: %v vs %v", label, got, want)
		}
	}
}

// interactingPairs counts ordered (i,j), i != j, pairs inside the
// cutoff with the O(N²) scan: the oracle Run's list-row count
// (listInteractingPairs) is pinned against in
// TestPairlistBreakdownPinnedToN2Build.
func interactingPairs(p md.Params[float64], pos md.Coords[float64]) int64 {
	rc2 := p.Cutoff * p.Cutoff
	var k int64
	n := pos.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := md.MinImage(pos.At(i).Sub(pos.At(j)), p.Box)
			if r2 := d.Norm2(); r2 < rc2 && r2 > 0 {
				k++
			}
		}
	}
	return 2 * k // full loop visits each pair twice
}
