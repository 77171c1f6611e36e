package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/device"
	"repro/internal/mta"
	"repro/internal/sim"
)

func TestStandardWorkloadShape(t *testing.T) {
	w, err := StandardWorkload(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 500 || w.Steps != 7 {
		t.Fatalf("N=%d steps=%d", w.N(), w.Steps)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Cutoff != StdCutoff {
		t.Fatalf("cutoff = %v", w.Cutoff)
	}
}

func TestStandardWorkloadTinySystemShrinksCutoff(t *testing.T) {
	w, err := StandardWorkload(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if 2*w.Cutoff > w.State.Box {
		t.Fatalf("cutoff %v too large for box %v", w.Cutoff, w.State.Box)
	}
}

func TestStandardWorkloadRejectsBadN(t *testing.T) {
	if _, err := StandardWorkload(0, 1); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestReferenceEnergiesMemoized(t *testing.T) {
	w, err := StandardWorkload(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	pe1, ke1, err := ReferenceEnergies(w)
	if err != nil {
		t.Fatal(err)
	}
	pe2, ke2, err := ReferenceEnergies(w)
	if err != nil {
		t.Fatal(err)
	}
	if pe1 != pe2 || ke1 != ke2 {
		t.Fatal("memoized energies differ")
	}
}

func TestValidateCatchesWrongPhysics(t *testing.T) {
	w, err := StandardWorkload(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewOpteron().Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, w, TolDouble); err != nil {
		t.Fatalf("correct physics rejected: %v", err)
	}
	res.PE *= 1.5
	if err := Validate(res, w, TolDouble); err == nil {
		t.Fatal("corrupted PE passed validation")
	}
}

func TestAllDevicesValidateOnSharedWorkload(t *testing.T) {
	devs, err := Devices()
	if err != nil {
		t.Fatal(err)
	}
	w, err := StandardWorkload(108, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, dev := range devs {
		res, err := dev.Run(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tol := TolDouble
		if name == "cell" || name == "gpu" {
			tol = TolSingle
		}
		if err := Validate(res, w, tol); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(cell.NumVariants) {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Seconds >= rows[i-1].Seconds {
			t.Fatalf("ladder not monotone at %s: %v >= %v",
				rows[i].Variant, rows[i].Seconds, rows[i-1].Seconds)
		}
	}
	if rows[0].Variant != "original" || rows[len(rows)-1].Variant != "simd-accel" {
		t.Fatalf("unexpected variant order: %v ... %v", rows[0].Variant, rows[len(rows)-1].Variant)
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6(512, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byConfig := map[string]Fig6Row{}
	for _, r := range rows {
		byConfig[r.Config] = r
		if r.Spawn > r.Total {
			t.Fatalf("%s: spawn %v exceeds total %v", r.Config, r.Spawn, r.Total)
		}
	}
	r8 := byConfig["8 SPE / respawn"]
	a8 := byConfig["8 SPE / amortized"]
	if r8.Spawn <= a8.Spawn {
		t.Fatal("respawn spawn overhead not larger than amortized")
	}
	if a8.Total >= r8.Total {
		t.Fatal("amortized not faster than respawn at 8 SPEs")
	}
	r1 := byConfig["1 SPE / respawn"]
	if r1.Spawn/r1.Total >= r8.Spawn/r8.Total {
		t.Fatal("spawn fraction should grow with SPE count in respawn mode")
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8([]int{128, 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Partially < 5*r.Fully {
			t.Fatalf("N=%d: partially (%v) not ≫ fully (%v)", r.N, r.Partially, r.Fully)
		}
	}
	if gap0, gap1 := rows[0].Partially-rows[0].Fully, rows[1].Partially-rows[1].Fully; gap1 <= gap0 {
		t.Fatalf("gap shrank with N: %v -> %v", gap0, gap1)
	}
}

func TestFig9Shape(t *testing.T) {
	rows, err := Fig9([]int{256, 512, 4096}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MTARel != 1 || rows[0].OpteronRel != 1 {
		t.Fatalf("normalization point not 1: %+v", rows[0])
	}
	last := rows[len(rows)-1]
	// Both roughly quadratic...
	if last.MTARel < 100 || last.OpteronRel < 100 {
		t.Fatalf("growth not quadratic-ish: %+v", last)
	}
	// ...but the Opteron bends upward once the arrays leave L1 (96 KB
	// at 4096 atoms), while the cache-less MTA does not.
	if last.OpteronRel <= last.MTARel {
		t.Fatalf("Opteron growth (%v) should exceed MTA growth (%v) at 4096 atoms",
			last.OpteronRel, last.MTARel)
	}
}

func TestFig9RequiresPoints(t *testing.T) {
	if _, err := Fig9(nil, 1); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7([]int{64, 1024}, 5)
	if err != nil {
		t.Fatal(err)
	}
	smallest, largest := rows[0], rows[len(rows)-1]
	if smallest.GPU <= smallest.Opteron {
		t.Fatalf("at N=%d the GPU (%v) should lose to the Opteron (%v): fixed PCIe/dispatch costs",
			smallest.N, smallest.GPU, smallest.Opteron)
	}
	if largest.GPU >= largest.Opteron {
		t.Fatalf("at N=%d the GPU (%v) should beat the Opteron (%v)",
			largest.N, largest.GPU, largest.Opteron)
	}
}

// TestPaperScaleRelations runs the headline 2048-atom, 10-step
// experiment and asserts the paper's Table 1 and Figure 7 ratios. It
// is the expensive integration test; -short skips it.
func TestPaperScaleRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale integration test")
	}
	rows, err := Table1(PaperAtoms, PaperSteps)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cfgName string) Table1Row {
		for _, r := range rows {
			if r.Config == cfgName {
				return r
			}
		}
		t.Fatalf("missing row %q", cfgName)
		return Table1Row{}
	}
	opt := get("Opteron")
	c1 := get("Cell, 1 SPE")
	c8 := get("Cell, 8 SPEs")
	ppe := get("Cell, PPE only")

	// "even a single SPE just edges out the Opteron"
	if !(c1.Seconds < opt.Seconds && c1.Seconds > 0.7*opt.Seconds) {
		t.Errorf("1 SPE (%v) should just edge out the Opteron (%v)", c1.Seconds, opt.Seconds)
	}
	// "using all 8 SPEs results in a better than 5x performance
	// improvement relative to the Opteron"
	if s := opt.Seconds / c8.Seconds; s < 4.5 || s > 7 {
		t.Errorf("8 SPE speedup vs Opteron = %v, want ~5x", s)
	}
	// "and 26x faster than the PPE alone"
	if s := ppe.Seconds / c8.Seconds; s < 15 || s > 40 {
		t.Errorf("8 SPE speedup vs PPE = %v, want ~26x", s)
	}

	// Figure 7 headline: "For a run of 2048 atoms, the GPU
	// implementation is almost 6x faster than the CPU."
	f7, err := Fig7([]int{PaperAtoms}, PaperSteps)
	if err != nil {
		t.Fatal(err)
	}
	if s := f7[0].Opteron / f7[0].GPU; s < 4.5 || s > 8 {
		t.Errorf("GPU speedup at 2048 atoms = %v, want ~6x", s)
	}
}

func TestDeviceConstructors(t *testing.T) {
	if _, err := NewCell(8, cell.LaunchOnce); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCellPPEOnly(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGPU(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMTA(mta.PartiallyThreaded); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(StdDensity) {
		t.Fatal("unreachable")
	}
}

func TestExperimentErrorPropagation(t *testing.T) {
	if _, err := Fig5(0); err == nil {
		t.Fatal("Fig5(0) accepted")
	}
	if _, err := Fig6(0, 1); err == nil {
		t.Fatal("Fig6(0 atoms) accepted")
	}
	if _, err := Table1(0, 1); err == nil {
		t.Fatal("Table1(0 atoms) accepted")
	}
	if _, err := Fig7([]int{0}, 1); err == nil {
		t.Fatal("Fig7 with zero-atom point accepted")
	}
	if _, err := Fig8([]int{0}, 1); err == nil {
		t.Fatal("Fig8 with zero-atom point accepted")
	}
	if _, err := Fig9([]int{0}, 1); err == nil {
		t.Fatal("Fig9 with zero-atom point accepted")
	}
}

func TestNewCellInvalidConfig(t *testing.T) {
	if _, err := NewCell(0, cell.LaunchOnce); err == nil {
		t.Fatal("NewCell(0) accepted")
	}
	if _, err := NewCell(9, cell.LaunchOnce); err == nil {
		t.Fatal("NewCell(9) accepted")
	}
}

func TestRunValidatedRejectsFailingDevice(t *testing.T) {
	w, err := StandardWorkload(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runValidated(badDevice{}, w, TolDouble); err == nil {
		t.Fatal("failing device accepted")
	}
	if _, err := runValidated(wrongPhysicsDevice{}, w, TolDouble); err == nil {
		t.Fatal("wrong-physics device accepted")
	}
}

// badDevice always errors.
type badDevice struct{}

func (badDevice) Name() string { return "bad" }
func (badDevice) Run(device.Workload) (*device.Result, error) {
	return nil, fmt.Errorf("broken device")
}

// wrongPhysicsDevice reports nonsense energies.
type wrongPhysicsDevice struct{}

func (wrongPhysicsDevice) Name() string { return "wrong" }
func (wrongPhysicsDevice) Run(w device.Workload) (*device.Result, error) {
	return &device.Result{
		Device: "wrong", N: w.N(), Steps: w.Steps,
		PE: 123456, KE: -1, Time: sim.NewBreakdown(),
	}, nil
}

func TestFitCutoff(t *testing.T) {
	for _, tc := range []struct{ cutoff, box, want float64 }{
		{2.5, 10, 2.5},
		{2.5, 5, 2.5}, // exactly half the box still fits
		{2.5, 4, 1.98},
	} {
		if got := FitCutoff(tc.cutoff, tc.box); got != tc.want {
			t.Errorf("FitCutoff(%v, %v) = %v, want %v", tc.cutoff, tc.box, got, tc.want)
		}
	}
}
