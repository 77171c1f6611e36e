// Package opteron models the paper's baseline: a 2.2 GHz AMD Opteron
// running the reference double-precision MD kernel exactly as the
// pseudo-code of Figure 4 describes it — for every atom, scan all N-1
// others, compute the minimum-image distance on the fly (including the
// square root), test the cutoff, and accumulate Lennard-Jones forces.
//
// The model is functional-first: the physics is computed for real (and
// validated against internal/md by the tests), while the modeled
// runtime is assembled from
//
//   - an operation-mix ledger converted to cycles by a cost table that
//     reflects a three-issue out-of-order core (fractional per-op costs
//     express instruction-level parallelism), and
//   - a two-level cache model (64 KB 2-way L1D, 1 MB 16-way L2, the
//     Opteron 2xx geometry) fed with the kernel's actual access
//     pattern: N cyclic streaming passes over the position array per
//     force evaluation. The closed-form streaming model used here is
//     property-tested against the reference cache simulator in
//     internal/cache.
//
// The cache component is what bends the Opteron's workload-scaling
// curve upward in Figure 9 once the position array outgrows L1 — the
// effect the paper highlights against the cache-less MTA-2.
package opteron

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/md"
	"repro/internal/sim"
)

// Config parameterizes the processor model.
type Config struct {
	ClockHz float64         // core frequency
	L1      cache.Config    // L1 data cache geometry
	L2      cache.Config    // L2 cache geometry
	Lat     cache.Latencies // added cycles on L1 miss / L2 miss
	Costs   sim.CostTable   // per-operation cycle costs

	// UsePairlist switches the force kernel to the Verlet neighbor
	// list (the cache-friendly optimization the paper cites but does
	// not use). Off for every paper experiment; on for the ablation.
	UsePairlist  bool
	PairlistSkin float64 // skin width when UsePairlist is set

	// ExactCache replaces the closed-form streaming model with a full
	// set-associative simulation of the force loop's position-array
	// traffic. Orders of magnitude slower (one simulated access per
	// cache line per pass) and used by the tests to verify that the
	// analytic model matches the real hierarchy on this access pattern.
	ExactCache bool
}

// DefaultConfig returns the 2.2 GHz Opteron model used throughout the
// reproduction.
func DefaultConfig() Config {
	var costs sim.CostTable
	// Fractional costs model sustained superscalar throughput: the
	// 3-issue core retires several independent ops per cycle on this
	// loop's dependence structure.
	costs[sim.OpFAdd] = 0.5
	costs[sim.OpFMul] = 0.5
	costs[sim.OpFDiv] = 10
	costs[sim.OpFSqrt] = 13
	costs[sim.OpCmp] = 0.5
	costs[sim.OpBranch] = 0.1 // predicted
	costs[sim.OpBranchMiss] = 12
	costs[sim.OpLoad] = 0.5 // L1-hit cost; miss penalties come from the cache model
	costs[sim.OpStore] = 0.5
	costs[sim.OpInt] = 0.33
	return Config{
		ClockHz: 2.2e9,
		L1:      cache.Config{SizeBytes: 64 * 1024, LineBytes: 64, Ways: 2},
		L2:      cache.Config{SizeBytes: 1024 * 1024, LineBytes: 64, Ways: 16},
		Lat:     cache.Latencies{L1Hit: 0, L2Hit: 12, Memory: 180},
		Costs:   costs,

		PairlistSkin: 0.4,
	}
}

// CPU is the modeled processor.
type CPU struct {
	cfg Config
}

// New returns a CPU with the given configuration.
func New(cfg Config) *CPU { return &CPU{cfg: cfg} }

// Name implements device.Device.
func (c *CPU) Name() string { return "opteron" }

// Run implements device.Device: execute the workload functionally in
// float64 while accounting modeled cycles.
func (c *CPU) Run(w device.Workload) (*device.Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt}
	sys, err := md.NewSystem(w.State, p)
	if err != nil {
		return nil, err
	}

	var ledger sim.Ledger
	variant := "reference"
	var forces func() float64
	if c.cfg.UsePairlist {
		variant = "pairlist"
		nl, err := md.NewNeighborList[float64](c.cfg.PairlistSkin)
		if err != nil {
			return nil, err
		}
		forces = func() float64 {
			pe := nl.Forces(sys.P, sys.Pos, sys.Acc)
			countPairlistForcePass(&ledger, sys.N(), nl.PairCount(), listInteractingPairs(nl, sys.P, sys.Pos))
			return pe
		}
	} else {
		forces = func() float64 {
			pe, k := md.ComputeForcesFullCount(sys.P, sys.Pos, sys.Acc)
			countForcePass(&ledger, sys.N(), k)
			return pe
		}
	}

	for s := 0; s < w.Steps; s++ {
		sys.StepWith(forces)
		countIntegration(&ledger, sys.N())
	}

	bd := sim.NewBreakdown()
	clock := sim.Clock{Hz: c.cfg.ClockHz}
	bd.Add("compute", clock.Seconds(ledger.Cycles(c.cfg.Costs)))
	memCycles, err := c.memoryModel(sys.N(), w.Steps)
	if err != nil {
		return nil, err
	}
	bd.Add("memory", clock.Seconds(memCycles))

	return &device.Result{
		Device:  c.Name(),
		Variant: variant,
		N:       sys.N(),
		Steps:   w.Steps,
		PE:      sys.PE,
		KE:      sys.KE,
		Time:    bd,
		Ledger:  ledger,
	}, nil
}

// listInteractingPairs counts ordered (i,j), i != j, pairs inside the
// cutoff — the quantity the data-dependent parts of the ledger scale
// with — over nl's rows. nl must be valid for pos (Forces has just
// refreshed it), so its rows hold every pair inside the cutoff and the
// count equals the O(N²) scan's at the list's cost. It mirrors the
// kernel's own cutoff test.
func listInteractingPairs(nl *md.NeighborList[float64], p md.Params[float64], pos md.Coords[float64]) int64 {
	rc2 := p.Cutoff * p.Cutoff
	var k int64
	for i := 0; i < pos.Len(); i++ {
		pi := pos.At(i)
		for _, j := range nl.Neighbors(i) {
			d := md.MinImage(pi.Sub(pos.At(int(j))), p.Box)
			if r2 := d.Norm2(); r2 < rc2 && r2 > 0 {
				k++
			}
		}
	}
	return 2 * k // full loop visits each pair twice
}

// countForcePass accrues the operation mix of one full N² force
// evaluation with k interacting ordered pairs: the per-pair distance
// pipeline of Figure 4 (difference, minimum image, squared length,
// square root, cutoff compare) plus the Lennard-Jones evaluation for
// interacting pairs.
func countForcePass(l *sim.Ledger, n int, k int64) {
	pairs := int64(n) * int64(n-1)
	l.Add(sim.OpLoad, 3*pairs)   // pos[j].{x,y,z}
	l.Add(sim.OpFAdd, 3*pairs)   // direction components
	l.Add(sim.OpCmp, 3*pairs)    // min-image tests
	l.Add(sim.OpBranch, 3*pairs) // min-image branches (highly predictable)
	l.Add(sim.OpFAdd, 3*pairs/2) // min-image corrections (~half the axes wrap on average)
	l.Add(sim.OpFMul, 3*pairs)   // squared components
	l.Add(sim.OpFAdd, 2*pairs)   // their sum
	l.Add(sim.OpFSqrt, pairs)    // the on-the-fly distance of Figure 4
	l.Add(sim.OpCmp, pairs)      // cutoff test
	l.Add(sim.OpBranch, pairs)   //
	l.Add(sim.OpInt, 2*pairs)    // loop index and address arithmetic
	l.Add(sim.OpBranchMiss, k)   // the rare taken side of the cutoff test
	countLJ(l, k)
	l.Add(sim.OpStore, 3*int64(n)) // write the accumulated acceleration
}

// countPairlistForcePass accrues the mix of a neighbor-list force pass:
// only the listed pairs are visited (each once, with Newton's third law
// applied), so the per-pair pipeline runs listPairs times instead of
// n*(n-1) times.
func countPairlistForcePass(l *sim.Ledger, n int, listPairs int, k int64) {
	pairs := int64(listPairs)
	l.Add(sim.OpLoad, 3*pairs)
	l.Add(sim.OpFAdd, 3*pairs)
	l.Add(sim.OpCmp, 3*pairs)
	l.Add(sim.OpBranch, 3*pairs)
	l.Add(sim.OpFAdd, 3*pairs/2)
	l.Add(sim.OpFMul, 3*pairs)
	l.Add(sim.OpFAdd, 2*pairs)
	l.Add(sim.OpFSqrt, pairs)
	l.Add(sim.OpCmp, pairs)
	l.Add(sim.OpBranch, pairs)
	l.Add(sim.OpInt, 3*pairs) // extra index indirection through the list
	half := k / 2             // list visits each unordered pair once
	l.Add(sim.OpBranchMiss, half)
	countLJ(l, half)
	l.Add(sim.OpFAdd, 3*half) // the j-side accumulation (third law)
	l.Add(sim.OpStore, 6*int64(n))
}

// countLJ accrues the Lennard-Jones pair evaluation for k pairs:
// sr2 = sig²/r² (div), sr6, sr12 (muls), energy and force terms, and
// the acceleration accumulation.
func countLJ(l *sim.Ledger, k int64) {
	l.Add(sim.OpFDiv, k)
	l.Add(sim.OpFMul, 6*k)
	l.Add(sim.OpFAdd, 3*k)
	l.Add(sim.OpFDiv, k)   // f / r²
	l.Add(sim.OpFMul, 3*k) // force vector components
	l.Add(sim.OpFAdd, 3*k) // acceleration accumulation
	l.Add(sim.OpFAdd, k)   // potential energy accumulation
}

// countIntegration accrues the O(N) work of one velocity-Verlet step
// outside the force kernel: two half-kicks, the drift, the wrap, and
// the kinetic-energy reduction.
func countIntegration(l *sim.Ledger, n int) {
	an := int64(n)
	l.Add(sim.OpFMul, 9*an) // kicks (2x3) + drift (3)
	l.Add(sim.OpFAdd, 9*an)
	l.Add(sim.OpCmp, 6*an) // wrap tests
	l.Add(sim.OpFAdd, 3*an/2)
	l.Add(sim.OpFMul, 3*an) // v² for kinetic energy
	l.Add(sim.OpFAdd, 3*an)
	l.Add(sim.OpLoad, 9*an)
	l.Add(sim.OpStore, 9*an)
	l.Add(sim.OpInt, 4*an)
}

// memoryModel dispatches between the closed-form streaming model and
// the exact hierarchy simulation.
func (c *CPU) memoryModel(n, steps int) (float64, error) {
	if c.cfg.ExactCache {
		return c.memoryCyclesExact(n, steps)
	}
	return c.memoryCycles(n, steps), nil
}

// memoryCyclesExact replays the force loop's position-array traffic —
// N cyclic sequential passes per force evaluation, one access per
// cache line — through the real two-level set-associative hierarchy.
func (c *CPU) memoryCyclesExact(n, steps int) (float64, error) {
	h, err := cache.NewHierarchy(c.cfg.L1, c.cfg.L2, c.cfg.Lat)
	if err != nil {
		return 0, err
	}
	posBytes := uint64(n) * 24
	line := uint64(c.cfg.L1.LineBytes)
	for pass := 0; pass < n*steps; pass++ {
		for addr := uint64(0); addr < posBytes; addr += line {
			h.Access(addr)
		}
	}
	return h.Cycles(), nil
}

// memoryCycles models the cache behaviour of the whole run with the
// closed-form streaming model: every force evaluation makes N cyclic
// sequential passes over the position array (24 bytes per atom in
// double precision). Misses that fall to L2 cost Lat.L2Hit; misses
// that fall out of L2 cost Lat.L2Hit+Lat.Memory on top.
func (c *CPU) memoryCycles(n, steps int) float64 {
	posBytes := int64(n) * 24
	passes := n * steps
	if passes == 0 {
		return 0
	}
	line := int64(c.cfg.L1.LineBytes)
	l1Misses := cache.StreamingSweep(posBytes, int64(c.cfg.L1.SizeBytes), line, passes)
	l2Misses := cache.StreamingSweep(posBytes, int64(c.cfg.L2.SizeBytes), line, passes)
	return float64(l1Misses)*c.cfg.Lat.L2Hit + float64(l2Misses)*c.cfg.Lat.Memory
}

var _ device.Device = (*CPU)(nil)

// String describes the configuration.
func (c *CPU) String() string {
	return fmt.Sprintf("opteron(%.1f GHz, L1 %dKB/%d-way, L2 %dKB/%d-way)",
		c.cfg.ClockHz/1e9,
		c.cfg.L1.SizeBytes/1024, c.cfg.L1.Ways,
		c.cfg.L2.SizeBytes/1024, c.cfg.L2.Ways)
}
