package mdrun

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/md"
)

// TestWorkerPanicSurfacesAsError pins the tentpole isolation contract:
// a panic inside a parallel force worker must come back from Run as an
// error with a partial Summary — the process must not die, and the
// runner must still Close cleanly afterwards.
func TestWorkerPanicSurfacesAsError(t *testing.T) {
	cfg := parallelBase(Direct, 3)
	cfg.Faults = faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Panic,
		Trigger: faults.Trigger{AtCall: 7},
	})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sum, err := r.Run(50)
	if err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not mention the panic: %v", err)
	}
	if sum == nil {
		t.Fatal("failed Run returned nil Summary; want partial summary")
	}
	if sum.Steps < 0 || sum.Steps >= 50 {
		t.Fatalf("partial Steps = %d, want 0 <= steps < 50", sum.Steps)
	}
	if sum.Steps != r.System().Steps {
		t.Fatalf("Summary.Steps %d != System.Steps %d", sum.Steps, r.System().Steps)
	}
}

// TestWorkerErrorFaultSurfacesAsError covers the non-panic worker
// failure kind through the same path.
func TestWorkerErrorFaultSurfacesAsError(t *testing.T) {
	cfg := parallelBase(Pairlist, 4)
	cfg.Faults = faults.NewRegistry(2).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Error,
		Trigger: faults.Trigger{AtCall: 3},
	})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Run(20)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want wrapped faults.ErrInjected, got %v", err)
	}
}

// TestTrajectoryWriteFailurePartialSummary replaces the old panic(err)
// trajectory path: an injected write failure must return an error and
// a Summary counting the steps that completed before it.
func TestTrajectoryWriteFailurePartialSummary(t *testing.T) {
	var buf bytes.Buffer
	cfg := baseConfig()
	cfg.Atoms = 108
	cfg.Trajectory = &buf
	cfg.TrajectoryEvery = 5
	cfg.Faults = faults.NewRegistry(3).Arm(faults.Fault{
		Site: faults.SiteTrajectory, Kind: faults.Error,
		Trigger: faults.Trigger{FromCall: 1},
	})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sum, err := r.Run(20)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want wrapped faults.ErrInjected, got %v", err)
	}
	if sum == nil {
		t.Fatal("failed Run returned nil Summary")
	}
	// A 108-atom frame overflows the XYZ writer's buffer, so the first
	// frame attempt (step 5) hits the failing writer.
	if sum.Steps != 5 {
		t.Fatalf("partial Steps = %d, want 5 (failure at first frame)", sum.Steps)
	}
	if math.IsNaN(sum.FinalEnergy) {
		t.Fatal("partial summary has NaN energy on an I/O-only failure")
	}
}

// TestForcesCorruptionIsSilentWithoutGuard: a SiteForces NaN fault
// corrupts the accelerations but is not an execution error — detecting
// it is the guard watchdog's job. Run must complete and the poison must
// be visible in the final energy.
func TestForcesCorruptionIsSilentWithoutGuard(t *testing.T) {
	cfg := baseConfig()
	cfg.Atoms = 108
	cfg.Faults = faults.NewRegistry(4).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{AtCall: 3},
	})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sum, err := r.Run(10)
	if err != nil {
		t.Fatalf("value corruption must not be an execution error: %v", err)
	}
	if !math.IsNaN(sum.FinalEnergy) {
		t.Fatal("injected NaN never propagated to the final energy")
	}
}

// TestCloseAfterRunError: the worker pool must drain and close cleanly
// even when the last force evaluation failed mid-flight.
func TestCloseAfterRunError(t *testing.T) {
	cfg := parallelBase(Direct, 4)
	cfg.Faults = faults.NewRegistry(5).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Panic,
		Trigger: faults.Trigger{AtCall: 2},
	})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err == nil {
		t.Fatal("expected injected failure")
	}
	r.Close()
	r.Close() // and still idempotent afterwards
}

// TestCloseConcurrent: Close must be safe from several goroutines at
// once (the supervisor and a signal handler may race to clean up).
func TestCloseConcurrent(t *testing.T) {
	r, err := New(parallelBase(Direct, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Close()
		}()
	}
	wg.Wait()
}

// TestNewFromSystemResumeBitExact: adopting a mid-run system via
// NewFromSystem and continuing with the same method must reproduce an
// uninterrupted run bit for bit — the handover the guard supervisor
// depends on for clean restarts. The resume lands at step 25, between
// two Rescale kicks, so the kick phase must come from the system's
// step count.
func TestNewFromSystemResumeBitExact(t *testing.T) {
	for _, m := range []ForceMethod{Direct, Pairlist} {
		for _, th := range []ThermostatKind{NVE, Rescale, Berendsen} {
			t.Run(fmt.Sprintf("%v/%v", m, th), func(t *testing.T) {
				cfg := baseConfig()
				cfg.Atoms = 108
				cfg.Method = m
				cfg.Thermostat = th

				straight, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer straight.Close()
				want, err := straight.Run(50)
				if err != nil {
					t.Fatal(err)
				}

				first, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer first.Close()
				if _, err := first.Run(25); err != nil {
					t.Fatal(err)
				}
				resumed, err := NewFromSystem(first.System().Clone(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer resumed.Close()
				got, err := resumed.Run(25)
				if err != nil {
					t.Fatal(err)
				}

				checkSameState(t, straight.System(), resumed.System())
				checkSameBits(t, "FinalEnergy", got.FinalEnergy, want.FinalEnergy)
				if got.StartStep != 25 || got.Steps != 25 {
					t.Fatalf("resumed window: %d steps from step %d, want 25 from 25", got.Steps, got.StartStep)
				}
			})
		}
	}
}

// TestNewFromSystemDtOverride: the config's Dt must override the
// adopted system's (the supervisor's halve-dt escalation rung), while
// a zero Dt keeps the system's own.
func TestNewFromSystemDtOverride(t *testing.T) {
	cfg := baseConfig()
	cfg.Atoms = 108
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	halved := cfg
	halved.Dt = cfg.Dt / 2
	r2, err := NewFromSystem(r.System().Clone(), halved)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.System().P.Dt; got != cfg.Dt/2 {
		t.Fatalf("Dt override: got %v, want %v", got, cfg.Dt/2)
	}

	keep := cfg
	keep.Dt = 0
	r3, err := NewFromSystem(r.System().Clone(), keep)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if got := r3.System().P.Dt; got != cfg.Dt {
		t.Fatalf("zero Dt must keep the system's: got %v, want %v", got, cfg.Dt)
	}
}

// TestNewFromSystemThermostatUsesSystemDt: with Dt unset, the
// thermostat and the Berendsen Tau default must follow the adopted
// system's Dt, so the run is bitwise the one the same config gives
// with that Dt spelled out.
func TestNewFromSystemThermostatUsesSystemDt(t *testing.T) {
	base := baseConfig()
	base.Atoms = 108
	r, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, th := range []ThermostatKind{Berendsen, Langevin} {
		implicit := Config{Thermostat: th, Temperature: 1, Seed: 5}
		explicit := implicit
		explicit.Dt = base.Dt
		var sys [2]*md.System[float64]
		for k, cfg := range []Config{implicit, explicit} {
			run, err := NewFromSystem(r.System().Clone(), cfg)
			if err != nil {
				t.Fatalf("%v, Dt %v: %v", th, cfg.Dt, err)
			}
			if _, err := run.Run(20); err != nil {
				t.Fatal(err)
			}
			run.Close()
			sys[k] = run.System()
		}
		a, b := sys[0], sys[1]
		for i := 0; i < a.N(); i++ {
			if a.Pos.At(i) != b.Pos.At(i) || a.Vel.At(i) != b.Vel.At(i) {
				t.Fatalf("%v: unset Dt diverged from explicit Dt at atom %d", th, i)
			}
		}
		if a.PE != b.PE || a.KE != b.KE {
			t.Fatalf("%v: energies %v/%v vs %v/%v", th, a.PE, a.KE, b.PE, b.KE)
		}
	}
}

// TestNewFromSystemRejectsEmpty guards the nil/empty system paths.
func TestNewFromSystemRejectsEmpty(t *testing.T) {
	if _, err := NewFromSystem(nil, baseConfig()); err == nil {
		t.Fatal("nil system accepted")
	}
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	empty := r.System().Clone()
	empty.Pos.Resize(0)
	if _, err := NewFromSystem(empty, baseConfig()); err == nil {
		t.Fatal("empty system accepted")
	}
}
