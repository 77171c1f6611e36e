// Package mta models the Cray MTA-2 as the paper uses it (sections 3.3
// and 5.3): a multithreaded processor with 128 hardware streams, no
// data caches, and a uniform memory latency that is hidden — but only
// when the compiler actually multithreads the loops.
//
// The model has three pieces:
//
//   - a latency/throughput machine model (machine.go, below): a
//     parallelized loop issues one instruction per cycle as long as
//     enough ready streams cover the average instruction latency; a
//     serial loop exposes every instruction's full latency (memory
//     ~150 cycles, uncached — there is nothing else on an MTA);
//   - a loop "compiler" (loop.go): a loop carrying a scalar reduction
//     is NOT auto-parallelized; moving the reduction into the loop body
//     and adding the no-dependency directive makes it eligible —
//     exactly the code change the paper describes for step 2 of the
//     kernel, and the entire difference between the "fully" and
//     "partially multithreaded" curves of Figure 8;
//   - full/empty bits (femem.go): the MTA's word-level synchronization,
//     provided for completeness and exercised by the examples and
//     tests.
//
// Because the machine has no caches, the modeled runtime scales exactly
// with the instruction count — the smooth quadratic growth that
// Figure 9 contrasts with the Opteron's capacity-miss bend.
package mta

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/md"
	"repro/internal/sim"
)

// Threading selects how much of the kernel the compiler multithreads.
type Threading int

const (
	// FullyThreaded: the force loop's reduction was restructured and
	// annotated, so every loop runs across all streams.
	FullyThreaded Threading = iota
	// PartiallyThreaded: the force loop (step 2, the O(N²) part) runs
	// serially because the compiler "found a dependency on the
	// reduction operation"; the O(N) loops still parallelize.
	PartiallyThreaded
)

// String implements fmt.Stringer.
func (t Threading) String() string {
	switch t {
	case FullyThreaded:
		return "fully-mt"
	case PartiallyThreaded:
		return "partially-mt"
	default:
		return fmt.Sprintf("Threading(%d)", int(t))
	}
}

// Config parameterizes the machine.
type Config struct {
	Streams    int     // hardware streams per processor (128 on MTA-2)
	Processors int     // processor modules (the paper compares 1)
	ClockHz    float64 // ~200 MHz ("about 11x slower than the 2.2 GHz Opteron")

	MemLatencyCycles float64 // uniform memory latency (no caches)
	ALULatencyCycles float64 // pipeline depth for register operations

	Threading Threading
}

// DefaultConfig returns the single-processor MTA-2 model.
func DefaultConfig() Config {
	return Config{
		Streams:          128,
		Processors:       1,
		ClockHz:          200e6,
		MemLatencyCycles: 150,
		ALULatencyCycles: 21,
		Threading:        FullyThreaded,
	}
}

// Machine is the modeled system.
type Machine struct {
	cfg Config
}

// New validates cfg and returns the machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Streams <= 0 {
		return nil, fmt.Errorf("mta: streams must be positive, got %d", cfg.Streams)
	}
	if cfg.Processors <= 0 {
		return nil, fmt.Errorf("mta: processors must be positive, got %d", cfg.Processors)
	}
	if cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("mta: clock must be positive")
	}
	if cfg.MemLatencyCycles <= 0 || cfg.ALULatencyCycles <= 0 {
		return nil, fmt.Errorf("mta: latencies must be positive")
	}
	if cfg.Threading != FullyThreaded && cfg.Threading != PartiallyThreaded {
		return nil, fmt.Errorf("mta: unknown threading mode %d", int(cfg.Threading))
	}
	return &Machine{cfg: cfg}, nil
}

// Name implements device.Device.
func (m *Machine) Name() string { return "mta" }

// LoopCycles converts a loop's instruction ledger into machine cycles.
//
// Parallelized loops: the processor issues one instruction per cycle
// from whichever stream is ready. With S streams and average
// instruction latency L̄, utilization is min(1, S/L̄) — at 128 streams
// against L̄ of a few tens of cycles the processor is saturated, which
// is the MTA's whole design point. Multiple processors divide the work.
//
// Serial loops: a single stream can only issue an instruction after the
// previous one completes, so every instruction exposes its full
// latency: memory operations pay the uncached ~150 cycles, everything
// else the pipeline depth.
func (m *Machine) LoopCycles(l *sim.Ledger, parallelized bool) float64 {
	mem := float64(l.Count(sim.OpLoad) + l.Count(sim.OpStore))
	total := float64(l.Total())
	alu := total - mem
	if total == 0 {
		return 0
	}
	if parallelized {
		avgLat := (mem*m.cfg.MemLatencyCycles + alu*m.cfg.ALULatencyCycles) / total
		util := float64(m.cfg.Streams) / avgLat
		if util > 1 {
			util = 1
		}
		return total / util / float64(m.cfg.Processors)
	}
	return mem*m.cfg.MemLatencyCycles + alu*m.cfg.ALULatencyCycles
}

// Run implements device.Device: double-precision MD with the force loop
// either fully or partially multithreaded.
func (m *Machine) Run(w device.Workload) (*device.Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p := md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt}
	sys, err := md.NewSystem(w.State, p)
	if err != nil {
		return nil, err
	}

	forceLoop := ForceLoopSpec(m.cfg.Threading == FullyThreaded)
	if m.cfg.Threading == FullyThreaded && !Parallelizes(forceLoop) {
		return nil, fmt.Errorf("mta: internal error: restructured force loop did not parallelize")
	}

	var cycles float64
	var merged sim.Ledger
	forces := func() float64 {
		pe, k := md.ComputeForcesFullCount(sys.P, sys.Pos, sys.Acc)
		var l sim.Ledger
		countForcePass(&l, sys.N(), k)
		cycles += m.LoopCycles(&l, Parallelizes(forceLoop))
		merged.Merge(&l)
		return pe
	}
	for s := 0; s < w.Steps; s++ {
		sys.StepWith(forces)
		// The O(N) integration loops have no reductions the compiler
		// cannot handle; they parallelize without modification in both
		// threading modes (section 5.3).
		var l sim.Ledger
		countIntegration(&l, sys.N())
		cycles += m.LoopCycles(&l, true)
		merged.Merge(&l)
	}

	bd := sim.NewBreakdown()
	bd.Add("compute", cycles/m.cfg.ClockHz)
	return &device.Result{
		Device:  m.Name(),
		Variant: m.cfg.Threading.String(),
		N:       sys.N(),
		Steps:   w.Steps,
		PE:      sys.PE,
		KE:      sys.KE,
		Time:    bd,
		Ledger:  merged,
	}, nil
}

// countForcePass accrues the per-pair instruction mix of the force
// evaluation on the MTA: uncached loads for the partner position, the
// branch-free minimum image the compiler emits (compares + selects),
// the squared distance, the on-the-fly distance (software square root
// sequence), the cutoff test, and the Lennard-Jones work for the k
// interacting ordered pairs.
func countForcePass(l *sim.Ledger, n int, k int64) {
	pairs := int64(n) * int64(n-1)
	l.Add(sim.OpLoad, 3*pairs)  // partner coordinates: every one a real memory op
	l.Add(sim.OpFAdd, 3*pairs)  // direction
	l.Add(sim.OpCmp, 3*pairs)   // minimum-image compares
	l.Add(sim.OpFAdd, 3*pairs)  // minimum-image selects/corrections
	l.Add(sim.OpFMul, 3*pairs)  // squares
	l.Add(sim.OpFAdd, 2*pairs)  // sum
	l.Add(sim.OpFSqrt, pairs)   // issue of the sqrt sequence head
	l.Add(sim.OpFMul, 14*pairs) // ...and its Newton-iteration body
	l.Add(sim.OpCmp, pairs)     // cutoff test
	l.Add(sim.OpInt, 2*pairs)   // loop control
	// Interacting pairs: LJ evaluation and accumulation. The MTA-2 has
	// no hardware floating divide: each of the two divides expands into
	// a ~12-instruction reciprocal-refinement sequence.
	l.Add(sim.OpFMul, 24*k)
	l.Add(sim.OpFMul, 9*k)
	l.Add(sim.OpFAdd, 7*k)
	l.Add(sim.OpStore, 3*int64(n))
}

// countIntegration accrues the O(N) velocity-Verlet work per step.
func countIntegration(l *sim.Ledger, n int) {
	an := int64(n)
	l.Add(sim.OpLoad, 9*an)
	l.Add(sim.OpStore, 9*an)
	l.Add(sim.OpFMul, 12*an)
	l.Add(sim.OpFAdd, 12*an)
	l.Add(sim.OpCmp, 6*an)
	l.Add(sim.OpInt, 4*an)
}

var _ device.Device = (*Machine)(nil)
