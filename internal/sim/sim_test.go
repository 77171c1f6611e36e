package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLedgerAddCount(t *testing.T) {
	var l Ledger
	l.Add(OpFAdd, 10)
	l.Add(OpFAdd, 5)
	l.Add(OpVec, 3)
	if l.Count(OpFAdd) != 15 || l.Count(OpVec) != 3 || l.Count(OpFMul) != 0 {
		t.Fatalf("counts wrong: %v", l.String())
	}
	if l.Total() != 18 {
		t.Fatalf("Total = %d, want 18", l.Total())
	}
}

func TestLedgerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var l Ledger
	l.Add(OpFAdd, -1)
}

func TestLedgerCycles(t *testing.T) {
	var l Ledger
	l.Add(OpFAdd, 100)
	l.Add(OpFDiv, 10)
	var ct CostTable
	ct[OpFAdd] = 1
	ct[OpFDiv] = 20
	if got := l.Cycles(ct); got != 100+200 {
		t.Fatalf("Cycles = %v, want 300", got)
	}
}

func TestLedgerCyclesLinearInCounts(t *testing.T) {
	prop := func(a, b uint16) bool {
		var l1, l2, both Ledger
		l1.Add(OpFMul, int64(a))
		l2.Add(OpFMul, int64(b))
		both.Add(OpFMul, int64(a)+int64(b))
		var ct CostTable
		ct[OpFMul] = 2.5
		return math.Abs(l1.Cycles(ct)+l2.Cycles(ct)-both.Cycles(ct)) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerMergeEqualsSequential(t *testing.T) {
	prop := func(a, b, c uint16) bool {
		var l1, l2 Ledger
		l1.Add(OpLoad, int64(a))
		l1.Add(OpStore, int64(b))
		l2.Add(OpLoad, int64(c))
		merged := l1
		merged.Merge(&l2)
		return merged.Count(OpLoad) == int64(a)+int64(c) && merged.Count(OpStore) == int64(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerReset(t *testing.T) {
	var l Ledger
	l.Add(OpInt, 42)
	l.Reset()
	if l.Total() != 0 {
		t.Fatal("Reset left counts behind")
	}
}

func TestLedgerString(t *testing.T) {
	var l Ledger
	l.Add(OpFAdd, 1)
	l.Add(OpVec, 100)
	s := l.String()
	if !strings.Contains(s, "vec=100") || !strings.Contains(s, "fadd=1") {
		t.Fatalf("String = %q", s)
	}
	// Largest first.
	if strings.Index(s, "vec=100") > strings.Index(s, "fadd=1") {
		t.Fatalf("String not sorted by count: %q", s)
	}
}

func TestOpString(t *testing.T) {
	if OpFAdd.String() != "fadd" || OpBranchMiss.String() != "branchmiss" {
		t.Fatal("Op.String")
	}
	if Op(-1).String() == "" || Op(999).String() == "" {
		t.Fatal("out-of-range Op.String empty")
	}
}

func TestClockRoundTrip(t *testing.T) {
	c := Clock{Hz: 2.2e9}
	prop := func(raw uint32) bool {
		cycles := float64(raw)
		return math.Abs(c.Cycles(c.Seconds(cycles))-cycles) < 1e-6*(1+cycles)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-Hz clock did not panic")
		}
	}()
	Clock{}.Seconds(1)
}

func TestBreakdownBasics(t *testing.T) {
	b := NewBreakdown()
	b.Add("compute", 1.5)
	b.Add("dma", 0.25)
	b.Add("compute", 0.5)
	if b.Component("compute") != 2.0 || b.Component("dma") != 0.25 {
		t.Fatalf("components wrong: %v", b)
	}
	if math.Abs(b.Total()-2.25) > 1e-12 {
		t.Fatalf("Total = %v, want 2.25", b.Total())
	}
	if got := b.Labels(); len(got) != 2 || got[0] != "compute" || got[1] != "dma" {
		t.Fatalf("Labels = %v", got)
	}
}

func TestBreakdownNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewBreakdown().Add("x", -1)
}

func TestBreakdownMerge(t *testing.T) {
	a := NewBreakdown()
	a.Add("compute", 1)
	b := NewBreakdown()
	b.Add("compute", 2)
	b.Add("spawn", 3)
	a.Merge(b)
	if a.Component("compute") != 3 || a.Component("spawn") != 3 {
		t.Fatalf("merge wrong: %v", a)
	}
}

func TestBreakdownScale(t *testing.T) {
	b := NewBreakdown()
	b.Add("compute", 2)
	b.Add("dma", 1)
	b.Scale(10)
	if b.Component("compute") != 20 || b.Component("dma") != 10 {
		t.Fatalf("scale wrong: %v", b)
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.Add("compute", 1)
	s := b.String()
	if !strings.Contains(s, "compute=1s") || !strings.Contains(s, "total=1s") {
		t.Fatalf("String = %q", s)
	}
}

func TestBreakdownUnknownComponentIsZero(t *testing.T) {
	if NewBreakdown().Component("nope") != 0 {
		t.Fatal("unknown component not zero")
	}
}
