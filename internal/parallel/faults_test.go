package parallel

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/md"
)

// faultState builds a small standard-liquid state shared by the
// injection tests.
func faultState(t testing.TB, n int) (md.Params[float64], md.Coords[float64], md.Coords[float64]) {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004},
		md.CoordsFromV3(st.Pos), md.MakeCoords[float64](n)
}

// TestWorkerPanicBecomesError pins worker isolation: an injected panic
// inside a pool worker surfaces as an error from the Try kernel — the
// process survives, and the pool stays usable for the next evaluation.
func TestWorkerPanicBecomesError(t *testing.T) {
	p, pos, acc := faultState(t, 108)
	for _, workers := range []int{1, 4} {
		e := New[float64](workers)
		reg := faults.NewRegistry(1).Arm(faults.Fault{
			Site: faults.SiteWorker, Kind: faults.Panic, Trigger: faults.Trigger{AtCall: 1},
		})
		e.SetInjector(reg)

		_, err := e.ForcesDirect(p, pos, acc)
		if err == nil {
			t.Fatalf("workers=%d: injected panic did not surface as error", workers)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: error %q does not identify the panic", workers, err)
		}

		// The pool must still work: the next evaluation matches serial.
		pe, err := e.ForcesDirect(p, pos, acc)
		if err != nil {
			t.Fatalf("workers=%d: pool dead after recovered panic: %v", workers, err)
		}
		ref := md.MakeCoords[float64](pos.Len())
		want := md.ComputeForcesFull(p, pos, ref)
		if rel := math.Abs(pe-want) / (1 + math.Abs(want)); rel > 1e-12 {
			t.Fatalf("workers=%d: post-panic PE %v vs serial %v", workers, pe, want)
		}
		e.Close()
	}
}

// TestWorkerPanicAllKernels exercises the error path of every Try
// kernel.
func TestWorkerPanicAllKernels(t *testing.T) {
	p, pos, acc := faultState(t, 864)
	e := New[float64](3)
	defer e.Close()
	nl, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []struct {
		name string
		eval func() (float64, error)
	}{
		{"direct", func() (float64, error) { return e.ForcesDirect(p, pos, acc) }},
		{"pairlist", func() (float64, error) { return e.ForcesPairlist(nl, p, pos, acc) }},
	}
	for _, k := range kernels {
		reg := faults.NewRegistry(1).Arm(faults.Fault{
			Site: faults.SiteWorker, Kind: faults.Panic, Trigger: faults.Trigger{AtCall: 2},
		})
		e.SetInjector(reg)
		if _, err := k.eval(); err == nil {
			t.Errorf("%s: injected worker panic not surfaced", k.name)
		}
		e.SetInjector(nil)
		if _, err := k.eval(); err != nil {
			t.Errorf("%s: pool dead after recovered panic: %v", k.name, err)
		}
	}
}

// TestWorkerDelayKeepsResultsCorrect injects a straggler: the kernel
// is slower but bit-identical in result.
func TestWorkerDelayKeepsResultsCorrect(t *testing.T) {
	p, pos, acc := faultState(t, 108)
	e := New[float64](4)
	defer e.Close()
	clean := md.MakeCoords[float64](pos.Len())
	peClean, err := e.ForcesDirect(p, pos, clean)
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Delay, Delay: 2 * time.Millisecond,
		Trigger: faults.Trigger{AtCall: 1},
	}))
	pe, err := e.ForcesDirect(p, pos, acc)
	if err != nil {
		t.Fatal(err)
	}
	if pe != peClean {
		t.Fatalf("delayed PE %v != clean PE %v", pe, peClean)
	}
	for i := 0; i < acc.Len(); i++ {
		if acc.At(i) != clean.At(i) {
			t.Fatalf("delayed forces diverged at atom %d", i)
		}
	}
}

// TestParallelForcesCorruption pins the accelerator-bit-rot site: an
// armed NaN fault poisons the kernel output, and falls silent again
// once disarmed.
func TestParallelForcesCorruption(t *testing.T) {
	p, pos, acc := faultState(t, 108)
	e := New[float64](2)
	defer e.Close()
	reg := faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteParallelForces, Kind: faults.NaN, Trigger: faults.Trigger{AtCall: 2},
	})
	e.SetInjector(reg)
	if _, err := e.ForcesDirect(p, pos, acc); err != nil {
		t.Fatal(err)
	}
	if hasNaN(acc) {
		t.Fatal("corruption fired early")
	}
	if _, err := e.ForcesDirect(p, pos, acc); err != nil {
		t.Fatal(err)
	}
	if !hasNaN(acc) {
		t.Fatal("armed NaN fault did not poison the output")
	}
	if got := reg.Fired(faults.SiteParallelForces); got != 1 {
		t.Fatalf("fired %d times, want 1", got)
	}
}

func hasNaN(arr md.Coords[float64]) bool {
	for i := 0; i < arr.Len(); i++ {
		v := arr.At(i)
		if math.IsNaN(v.X) || math.IsNaN(v.Y) || math.IsNaN(v.Z) {
			return true
		}
	}
	return false
}

// TestErrorLeavesPoolDrainedNotWedged hammers the error path: many
// consecutive failed evaluations must not leak or wedge the pool.
func TestErrorLeavesPoolDrainedNotWedged(t *testing.T) {
	p, pos, acc := faultState(t, 64)
	e := New[float64](4)
	defer e.Close()
	e.SetInjector(faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Panic, Trigger: faults.Trigger{FromCall: 1},
	}))
	for i := 0; i < 50; i++ {
		if _, err := e.ForcesDirect(p, pos, acc); err == nil {
			t.Fatal("persistent fault stopped firing")
		}
	}
	e.SetInjector(nil)
	if _, err := e.ForcesDirect(p, pos, acc); err != nil {
		t.Fatalf("pool wedged after 50 failures: %v", err)
	}
}
