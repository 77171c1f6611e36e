// Package sim is the performance-modeling substrate shared by every
// device model in this repository (Opteron, Cell, GPU, MTA-2).
//
// The reproduction strategy is functional simulation plus first-order
// analytic cycle accounting: device kernels execute the real MD physics
// in Go (so their numerical results can be validated against the
// reference implementation in internal/md) while tallying every modeled
// machine operation in a Ledger. A per-device CostTable converts the
// operation counts into cycles, and a Clock converts cycles into
// seconds. Non-instruction time — DMA transfers, PCIe copies, thread
// spawns, mailbox waits — is accounted in seconds directly through a
// Breakdown, which also preserves the per-component split that Figure 6
// of the paper reports (total runtime vs. SPE launch overhead).
//
// Nothing here consults wall-clock time: modeled runtimes are pure
// functions of the workload, which makes every figure in EXPERIMENTS.md
// exactly reproducible.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Op identifies a class of modeled machine operation. The taxonomy is
// deliberately coarse — first-order models need operation *mixes*, not
// per-instruction traces.
type Op int

const (
	// OpFAdd is a scalar floating add or subtract.
	OpFAdd Op = iota
	// OpFMul is a scalar floating multiply.
	OpFMul
	// OpFDiv is a scalar floating divide.
	OpFDiv
	// OpFSqrt is a scalar floating square root.
	OpFSqrt
	// OpVec is a full-width SIMD arithmetic operation (add/mul/madd
	// across all lanes at once).
	OpVec
	// OpVecDiv is a SIMD divide/reciprocal-class operation.
	OpVecDiv
	// OpVecSqrt is a SIMD square-root/rsqrt-class operation.
	OpVecSqrt
	// OpCmp is a compare or select.
	OpCmp
	// OpBranch is a correctly handled (predicted or unconditional)
	// branch.
	OpBranch
	// OpBranchMiss is a mispredicted (or, on the SPE, any taken
	// data-dependent) branch: costs the pipeline-flush penalty.
	OpBranchMiss
	// OpLoad is a memory read (register width).
	OpLoad
	// OpStore is a memory write.
	OpStore
	// OpInt is integer/address arithmetic and loop overhead.
	OpInt

	// NumOps is the number of operation classes.
	NumOps
)

var opNames = [NumOps]string{
	"fadd", "fmul", "fdiv", "fsqrt",
	"vec", "vecdiv", "vecsqrt",
	"cmp", "branch", "branchmiss",
	"load", "store", "int",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// CostTable gives the modeled cost, in cycles, of one operation of each
// class on a particular device.
type CostTable [NumOps]float64

// Ledger accumulates operation counts for one kernel execution. The
// zero value is an empty ledger ready to use. Ledgers are not
// goroutine-safe; parallel device models keep one per worker and Merge.
type Ledger struct {
	counts [NumOps]int64
}

// Add records n operations of class op. n may be any non-negative
// count; Add panics on negative n to surface accounting bugs early.
func (l *Ledger) Add(op Op, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative op count %d for %v", n, op))
	}
	l.counts[op] += n
}

// Count returns the accumulated count for op.
func (l *Ledger) Count(op Op) int64 { return l.counts[op] }

// Total returns the total number of operations of all classes.
func (l *Ledger) Total() int64 {
	var t int64
	for _, c := range l.counts {
		t += c
	}
	return t
}

// Cycles converts the ledger to cycles under the given cost table.
func (l *Ledger) Cycles(ct CostTable) float64 {
	var cycles float64
	for op, c := range l.counts {
		cycles += float64(c) * ct[op]
	}
	return cycles
}

// Merge adds other's counts into l.
func (l *Ledger) Merge(other *Ledger) {
	for i := range l.counts {
		l.counts[i] += other.counts[i]
	}
}

// Reset clears all counts.
func (l *Ledger) Reset() { l.counts = [NumOps]int64{} }

// String renders the non-zero counts, largest first.
func (l *Ledger) String() string {
	type kv struct {
		op Op
		n  int64
	}
	var items []kv
	for op, n := range l.counts {
		if n != 0 {
			items = append(items, kv{Op(op), n})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].n > items[j].n })
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%v=%d", it.op, it.n)
	}
	return b.String()
}

// Clock converts cycles to seconds at a fixed frequency.
type Clock struct {
	Hz float64 // cycles per second (> 0)
}

// Seconds returns the wall time of the given cycle count on this clock.
func (c Clock) Seconds(cycles float64) float64 {
	if c.Hz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return cycles / c.Hz
}

// Cycles returns the cycle count corresponding to seconds of time on
// this clock (used to convert fixed latencies into the cycle domain).
func (c Clock) Cycles(seconds float64) float64 {
	if c.Hz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	return seconds * c.Hz
}
