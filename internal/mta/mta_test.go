package mta

import (
	"math"
	"strings"
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

func mustNew(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPhysicsMatchesReference(t *testing.T) {
	w := workload(t, 108, 10)
	res, err := mustNew(t, DefaultConfig()).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	p := md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt}
	sys, err := md.NewSystem(w.State, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Steps; i++ {
		sys.StepWith(func() float64 { return md.ComputeForcesFull(sys.P, sys.Pos, sys.Acc) })
	}
	if res.PE != sys.PE || res.KE != sys.KE {
		t.Fatalf("physics mismatch: PE %v vs %v, KE %v vs %v", res.PE, sys.PE, res.KE, sys.KE)
	}
}

func TestFullyVsPartiallyThreaded(t *testing.T) {
	// Figure 8: the fully multithreaded version is far faster, and the
	// absolute gap grows with N.
	gap := func(n int) (full, partial float64) {
		w := workload(t, n, 2)
		cfgF := DefaultConfig()
		cfgP := DefaultConfig()
		cfgP.Threading = PartiallyThreaded
		rf, err := mustNew(t, cfgF).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := mustNew(t, cfgP).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return rf.Seconds(), rp.Seconds()
	}
	f1, p1 := gap(256)
	if p1 < 10*f1 {
		t.Fatalf("partial (%v) not ≫ full (%v) at 256 atoms", p1, f1)
	}
	f2, p2 := gap(512)
	if (p2 - f2) <= (p1 - f1) {
		t.Fatalf("absolute gap did not grow with N: %v -> %v", p1-f1, p2-f2)
	}
}

func TestRuntimeScalesQuadraticallyNoCacheBend(t *testing.T) {
	// Figure 9's MTA property: runtime growth tracks the FLOP count
	// with no cache-capacity bend.
	m := mustNew(t, DefaultConfig())
	small, err := m.Run(workload(t, 256, 2))
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.Run(workload(t, 1024, 2))
	if err != nil {
		t.Fatal(err)
	}
	ratio := big.Seconds() / small.Seconds()
	// Noticeably under 16 is expected: the O(N·neighbors) interacting-
	// pair work (with its software-divide sequences) dilutes the O(N²)
	// scan as N grows. What matters is that no cache bend pushes the
	// ratio above 16.
	if ratio < 12.5 || ratio > 16.2 {
		t.Fatalf("runtime ratio = %v, want ~13-16 (FLOP-proportional scaling)", ratio)
	}
}

func TestSaturationNeedsEnoughStreams(t *testing.T) {
	// With very few streams the processor cannot hide latency and the
	// parallel loop slows down proportionally.
	w := workload(t, 256, 1)
	cfgFew := DefaultConfig()
	cfgFew.Streams = 4
	rFew, err := mustNew(t, cfgFew).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := mustNew(t, DefaultConfig()).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if rFew.Seconds() < 3*rFull.Seconds() {
		t.Fatalf("4 streams (%v) should be several times slower than 128 (%v)",
			rFew.Seconds(), rFull.Seconds())
	}
}

func TestMoreProcessorsScaleParallelLoops(t *testing.T) {
	w := workload(t, 256, 2)
	cfg2 := DefaultConfig()
	cfg2.Processors = 2
	r1, err := mustNew(t, DefaultConfig()).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mustNew(t, cfg2).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r1.Seconds() / r2.Seconds()
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("2-processor speedup = %v, want ~2", ratio)
	}
}

func TestLoopCompilerAnalysis(t *testing.T) {
	// The paper's exact story: the original force loop does not
	// parallelize; restructuring alone or the pragma alone is not
	// enough; both together work.
	original := ForceLoopSpec(false)
	if Parallelizes(original) {
		t.Fatal("original reduction loop should not parallelize")
	}
	if !strings.Contains(Diagnose(original), "reduction") {
		t.Fatalf("diagnosis = %q", Diagnose(original))
	}
	restructOnly := original
	restructOnly.Restructured = true
	if Parallelizes(restructOnly) {
		t.Fatal("restructured loop without pragma should not parallelize")
	}
	pragmaOnly := original
	pragmaOnly.NoDepPragma = true
	if Parallelizes(pragmaOnly) {
		t.Fatal("pragma without restructuring should not parallelize")
	}
	fixed := ForceLoopSpec(true)
	if !Parallelizes(fixed) {
		t.Fatal("restructured+pragma loop should parallelize")
	}
	if Diagnose(fixed) != "" {
		t.Fatalf("diagnosis for good loop = %q", Diagnose(fixed))
	}
	// Plain loops parallelize; other dependences do not.
	if !Parallelizes(LoopSpec{Name: "plain"}) {
		t.Fatal("dependence-free loop should parallelize")
	}
	rec := LoopSpec{Name: "recurrence", OtherDependence: true}
	if Parallelizes(rec) {
		t.Fatal("recurrence should not parallelize")
	}
	if Diagnose(rec) == "" {
		t.Fatal("recurrence needs a diagnosis")
	}
}

func TestLoopCyclesSerialExposesLatency(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	var l sim.Ledger
	l.Add(sim.OpLoad, 100)
	l.Add(sim.OpFAdd, 100)
	serial := m.LoopCycles(&l, false)
	wantSerial := 100*150.0 + 100*21.0
	if serial != wantSerial {
		t.Fatalf("serial cycles = %v, want %v", serial, wantSerial)
	}
	parallel := m.LoopCycles(&l, true)
	if parallel != 200 { // saturated: one instruction per cycle
		t.Fatalf("parallel cycles = %v, want 200", parallel)
	}
}

func TestLoopCyclesEmptyLedger(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	var l sim.Ledger
	if m.LoopCycles(&l, true) != 0 || m.LoopCycles(&l, false) != 0 {
		t.Fatal("empty ledger should cost nothing")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.Streams = 0 },
		func(c *Config) { c.Processors = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.MemLatencyCycles = 0 },
		func(c *Config) { c.ALULatencyCycles = 0 },
		func(c *Config) { c.Threading = Threading(9) },
	} {
		cfg := DefaultConfig()
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
	}
}

func TestThreadingString(t *testing.T) {
	if FullyThreaded.String() != "fully-mt" || PartiallyThreaded.String() != "partially-mt" {
		t.Fatal("Threading.String")
	}
	if Threading(7).String() == "" {
		t.Fatal("unknown Threading empty")
	}
}

func TestFEMemorySemantics(t *testing.T) {
	m := NewFEMemory(4)
	if m.Len() != 4 {
		t.Fatal("Len")
	}
	// Fresh words are empty: reads deadlock, writes succeed.
	if _, err := m.ReadFE(0); err == nil {
		t.Fatal("ReadFE from empty word succeeded")
	}
	if _, err := m.ReadFF(0); err == nil {
		t.Fatal("ReadFF from empty word succeeded")
	}
	if err := m.WriteEF(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if !m.IsFull(0) {
		t.Fatal("word not full after WriteEF")
	}
	// Full word: WriteEF deadlocks, ReadFF leaves full, ReadFE empties.
	if err := m.WriteEF(0, 2); err == nil {
		t.Fatal("WriteEF to full word succeeded")
	}
	if v, err := m.ReadFF(0); err != nil || v != 1.5 {
		t.Fatalf("ReadFF = %v, %v", v, err)
	}
	if !m.IsFull(0) {
		t.Fatal("ReadFF emptied the word")
	}
	if v, err := m.ReadFE(0); err != nil || v != 1.5 {
		t.Fatalf("ReadFE = %v, %v", v, err)
	}
	if m.IsFull(0) {
		t.Fatal("ReadFE left the word full")
	}
}

func TestFEMemoryAtomicAdd(t *testing.T) {
	m := NewFEMemory(1)
	if err := m.WriteXF(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := m.AtomicAdd(0, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := m.ReadFF(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5050 {
		t.Fatalf("sum = %v, want 5050", v)
	}
	if m.SyncOps() == 0 {
		t.Fatal("sync ops not counted")
	}
}

func TestFEMemoryBounds(t *testing.T) {
	m := NewFEMemory(2)
	if err := m.WriteEF(-1, 0); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := m.ReadFE(2); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := m.Purge(5); err == nil {
		t.Fatal("out-of-range purge accepted")
	}
	if m.IsFull(-1) || m.IsFull(99) {
		t.Fatal("IsFull out of range should be false")
	}
}

func TestFEMemoryPurge(t *testing.T) {
	m := NewFEMemory(1)
	if err := m.WriteXF(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Purge(0); err != nil {
		t.Fatal(err)
	}
	if m.IsFull(0) {
		t.Fatal("word full after purge")
	}
	if err := m.WriteEF(0, 8); err != nil {
		t.Fatal("WriteEF after purge failed")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	w := workload(t, 64, 3)
	m := mustNew(t, DefaultConfig())
	a, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds() != b.Seconds() || a.PE != b.PE {
		t.Fatal("nondeterministic MTA result")
	}
}

func TestRunRejectsInvalidWorkload(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	if _, err := m.Run(device.Workload{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	w := workload(t, 32, 1)
	w.Dt = -1
	if _, err := m.Run(w); err == nil {
		t.Fatal("negative dt accepted")
	}
}
