package guard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fsys"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/sim"
)

func baseRun(method mdrun.ForceMethod, atoms, workers int) mdrun.Config {
	return mdrun.Config{
		Atoms: atoms, Density: 0.8442, Temperature: 0.728,
		Lattice: lattice.FCC, Seed: 7,
		Cutoff: 2.5, Dt: 0.004, Shifted: true,
		Method: method, Workers: workers,
	}
}

// TestCleanRunMatchesPlainRun: with no faults, supervision must be
// invisible — the guarded trajectory is bitwise the plain runner's,
// the report shows zero incidents, and checkpoints land on disk.
func TestCleanRunMatchesPlainRun(t *testing.T) {
	cfg := baseRun(mdrun.Direct, 108, 1)

	plain, err := mdrun.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Run(50); err != nil {
		t.Fatal(err)
	}

	sup, err := New(Config{
		Run: cfg, CheckEvery: 10, CheckpointEvery: 20,
		CheckpointDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sum, rep, err := sup.Run(50)
	if err != nil {
		t.Fatal(err)
	}

	a, b := plain.System(), sup.System()
	if a.Steps != b.Steps {
		t.Fatalf("steps %d vs %d", a.Steps, b.Steps)
	}
	for i := 0; i < a.N(); i++ {
		if a.Pos.At(i) != b.Pos.At(i) || a.Vel.At(i) != b.Vel.At(i) {
			t.Fatalf("guarded run diverged at atom %d", i)
		}
	}
	if sum.FinalEnergy != a.TotalEnergy() {
		t.Fatalf("summary energy %v vs %v", sum.FinalEnergy, a.TotalEnergy())
	}
	if rep.Counts.Total() != 0 || rep.Rollbacks != 0 || !rep.Completed {
		t.Fatalf("clean run logged incidents: %v", rep)
	}
	if rep.CheckpointsWritten == 0 {
		t.Fatal("no checkpoints written")
	}
}

// TestRecoveryEscalatesToSerial is the PR's acceptance scenario: NaN
// forces injected mid-run under the sharded pairlist must be detected by
// the watchdog, rolled back to a CRC-valid checkpoint, and escalated
// through the ladder until the serial fallback (which never consults
// the parallel-forces fault site) completes the run — with a final
// energy matching an uninterrupted serial run to 1e-8 relative.
func TestRecoveryEscalatesToSerial(t *testing.T) {
	cfg := baseRun(mdrun.Pairlist, 864, 4)
	cfg.Faults = faults.NewRegistry(11).Arm(faults.Fault{
		Site: faults.SiteParallelForces, Kind: faults.NaN,
		Trigger: faults.Trigger{FromCall: 25},
	})
	dir := t.TempDir()
	sup, err := New(Config{
		Run: cfg, CheckEvery: 10, CheckpointEvery: 10,
		CheckpointDir: dir, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sum, rep, err := sup.Run(40)
	if err != nil {
		t.Fatalf("supervised run failed (%v); report: %v", err, rep)
	}

	// Uninterrupted serial reference with the original dt.
	ref := cfg
	ref.Workers = 1
	ref.Faults = nil
	plain, err := mdrun.New(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	refSum, err := plain.Run(40)
	if err != nil {
		t.Fatal(err)
	}

	relDiff := math.Abs(sum.FinalEnergy-refSum.FinalEnergy) / math.Abs(refSum.FinalEnergy)
	if relDiff > 1e-8 {
		t.Fatalf("recovered energy %v vs serial %v: rel diff %g > 1e-8",
			sum.FinalEnergy, refSum.FinalEnergy, relDiff)
	}
	if sup.System().Steps != 40 {
		t.Fatalf("final steps %d, want 40", sup.System().Steps)
	}

	// The whole ladder must have been walked: parallel retry, halved
	// dt, serial fallback — with a rollback before each.
	if got := rep.Counts.Count(sim.IncidentNaN); got < 3 {
		t.Errorf("NaN detections = %d, want >= 3 (one per failed attempt)", got)
	}
	if rep.Rollbacks != 3 || rep.Attempts != 3 {
		t.Errorf("rollbacks/attempts = %d/%d, want 3/3", rep.Rollbacks, rep.Attempts)
	}
	for _, inc := range []sim.Incident{sim.IncidentRetry, sim.IncidentDtHalved, sim.IncidentSerialFallback} {
		if rep.Counts.Count(inc) != 1 {
			t.Errorf("%v count = %d, want 1", inc, rep.Counts.Count(inc))
		}
	}
	// The serial rung keeps the method and drops only the sharding.
	if !rep.Completed || rep.FinalMethod != cfg.Method || rep.FinalWorkers != 1 || rep.FinalDt != cfg.Dt {
		t.Errorf("final method/workers/dt = %v/%d/%g completed=%v, want %v/1/%g/true",
			rep.FinalMethod, rep.FinalWorkers, rep.FinalDt, rep.Completed, cfg.Method, cfg.Dt)
	}
}

// TestSummaryPressureIsFinalState pins the guarded Summary.Pressure,
// which comes from the last committed segment's runner, bitwise to
// md.Pressure of the final state: for both methods, for a 0-step run,
// a run shorter than one segment and a multi-segment run, and for a
// run whose final segments ran on a runner rebuilt after a rollback.
func TestSummaryPressureIsFinalState(t *testing.T) {
	check := func(t *testing.T, cfg mdrun.Config, steps int) *RunReport {
		t.Helper()
		sup, err := New(Config{Run: cfg, CheckEvery: 10, CheckpointEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Close()
		sum, rep, err := sup.Run(steps)
		if err != nil {
			t.Fatalf("run failed (%v); report: %v", err, rep)
		}
		sys := sup.System()
		want := md.Pressure(sys.P, sys.Pos, sys.Temperature())
		if math.Float64bits(sum.Pressure) != math.Float64bits(want) {
			t.Fatalf("Summary.Pressure %v, want md.Pressure of the final state %v", sum.Pressure, want)
		}
		return rep
	}
	for _, m := range []mdrun.ForceMethod{mdrun.Direct, mdrun.Pairlist} {
		for _, steps := range []int{0, 7, 40} {
			t.Run(fmt.Sprintf("%v/%d-steps", m, steps), func(t *testing.T) {
				check(t, baseRun(m, 256, 1), steps)
			})
		}
	}
	t.Run("recovered-nan-forces", func(t *testing.T) {
		cfg := baseRun(mdrun.Pairlist, 256, 2)
		cfg.Faults = faults.NewRegistry(13).Arm(faults.Fault{
			Site: faults.SiteParallelForces, Kind: faults.NaN,
			Trigger: faults.Trigger{FromCall: 12},
		})
		if rep := check(t, cfg, 40); rep.Rollbacks == 0 {
			t.Fatalf("the injected fault caused no rollback: %v", rep)
		}
	})
}

// TestOneShotWorkerPanicRetried: a single injected worker panic must
// cost one rollback and one plain retry — no escalation — and the run
// still completes on the parallel method.
func TestOneShotWorkerPanicRetried(t *testing.T) {
	cfg := baseRun(mdrun.Direct, 108, 3)
	cfg.Faults = faults.NewRegistry(12).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Panic,
		Trigger: faults.Trigger{AtCall: 10},
	})
	sup, err := New(Config{Run: cfg, CheckEvery: 5, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	_, rep, err := sup.Run(30)
	if err != nil {
		t.Fatalf("run failed (%v); report: %v", err, rep)
	}
	if rep.Rollbacks != 1 || rep.Counts.Count(sim.IncidentRetry) != 1 {
		t.Errorf("rollbacks=%d retries=%d, want 1/1; report: %v",
			rep.Rollbacks, rep.Counts.Count(sim.IncidentRetry), rep)
	}
	if rep.Counts.Count(sim.IncidentSerialFallback) != 0 || rep.FinalWorkers != 3 {
		t.Errorf("one-shot fault escalated: %v", rep)
	}
	if rep.Counts.Count(sim.IncidentRunError) != 1 {
		t.Errorf("run-error count = %d, want 1", rep.Counts.Count(sim.IncidentRunError))
	}
	if sup.System().Steps != 30 {
		t.Errorf("final steps %d, want 30", sup.System().Steps)
	}
}

// TestPersistentFaultGivesUp: a fault that fires at every force
// evaluation regardless of method must exhaust the ladder and return
// the structured give-up error, with the report accounting for every
// attempt.
func TestPersistentFaultGivesUp(t *testing.T) {
	cfg := baseRun(mdrun.Direct, 108, 1)
	cfg.Faults = faults.NewRegistry(13).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{FromCall: 1},
	})
	sup, err := New(Config{Run: cfg, CheckEvery: 5, CheckpointEvery: 5, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sum, rep, err := sup.Run(20)
	if err == nil {
		t.Fatal("persistent fault did not exhaust the budget")
	}
	if !strings.Contains(err.Error(), "giving up after 3") {
		t.Errorf("give-up error = %v", err)
	}
	if sum != nil {
		t.Error("gave-up run returned a summary")
	}
	if rep == nil {
		t.Fatal("no report on give-up")
	}
	if rep.Completed || rep.Attempts != 3 || rep.Rollbacks != 3 {
		t.Errorf("report = %v, want 3 attempts, 3 rollbacks, not completed", rep)
	}
	if rep.Counts.Count(sim.IncidentSerialFallback) != 1 {
		t.Errorf("serial rung never tried: %v", rep)
	}
	if rep.Counts.Count(sim.IncidentNaN) != 4 {
		t.Errorf("NaN detections = %d, want 4 (initial + 3 retries)", rep.Counts.Count(sim.IncidentNaN))
	}
}

// TestCorruptCheckpointSkipped: recovery must never trust a corrupt
// checkpoint — the run's own newest file, truncated behind its back
// after it was published, is skipped (logged as ckpt-corrupt) in favor
// of an older valid one.
func TestCorruptCheckpointSkipped(t *testing.T) {
	dir := t.TempDir()
	cfg := baseRun(mdrun.Direct, 108, 2)
	cfg.Faults = faults.NewRegistry(14).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Panic,
		Trigger: faults.Trigger{AtCall: 15},
	})
	sup, err := New(Config{
		Run: cfg, CheckEvery: 5, CheckpointEvery: 5,
		CheckpointDir: dir, KeepCheckpoints: 100,
		// The step-5 commit has just published ckpt-5, the newest file
		// the rollback in the next segment will reach for: corrupt it.
		OnSegment: func(p Progress) {
			if p.Step != 5 {
				return
			}
			newest := filepath.Join(dir, "ckpt-000000005.mdcp")
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Error(err)
				return
			}
			if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	_, rep, err := sup.Run(20)
	if err != nil {
		t.Fatalf("run failed (%v); report: %v", err, rep)
	}
	if rep.Counts.Count(sim.IncidentCheckpointCorrupt) == 0 {
		t.Errorf("corrupt checkpoint never flagged: %v", rep)
	}
	if !rep.Completed || rep.Rollbacks != 1 {
		t.Errorf("report = %v, want completed with 1 rollback", rep)
	}
	if sup.System().Steps != 20 {
		t.Errorf("final steps %d, want 20", sup.System().Steps)
	}
}

// TestReusedDirIgnoresForeignCheckpoints: a checkpoint directory that
// still holds another run's newer files (a reused -checkpoint-dir)
// must not leak that run into this one — rollback restores this run's
// own state, and retention prunes only this run's files, never in
// favor of the other run's.
func TestReusedDirIgnoresForeignCheckpoints(t *testing.T) {
	dir := t.TempDir()
	earlier := baseRun(mdrun.Direct, 108, 1)
	earlier.Seed = 99
	prev, err := New(Config{Run: earlier, CheckpointEvery: 20, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()
	if _, _, err := prev.Run(60); err != nil {
		t.Fatal(err)
	}

	clean, err := New(Config{Run: baseRun(mdrun.Direct, 108, 1), CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	want, _, err := clean.Run(30)
	if err != nil {
		t.Fatal(err)
	}

	cfg := baseRun(mdrun.Direct, 108, 1)
	cfg.Faults = faults.NewRegistry(17).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{AtCall: 15},
	})
	sup, err := New(Config{Run: cfg, CheckpointEvery: 20, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sum, rep, err := sup.Run(30)
	if err != nil {
		t.Fatalf("run failed (%v); report: %v", err, rep)
	}
	if rep.Rollbacks != 1 {
		t.Fatalf("report = %v, want 1 rollback", rep)
	}
	for _, ev := range rep.Events {
		if ev.Kind == sim.IncidentRollback && ev.Detail != "rolled back to step 0" {
			t.Errorf("rollback event %q, want the run's own step-0 checkpoint", ev.Detail)
		}
	}
	if got := sup.System().Steps; got != 30 {
		t.Errorf("final steps %d, want 30", got)
	}
	if sum.FinalEnergy != want.FinalEnergy {
		t.Errorf("final energy %.12g, want the clean run's %.12g", sum.FinalEnergy, want.FinalEnergy)
	}
	// Retention kept this run's three files; the earlier run's newer
	// ones are left alone, not counted against them.
	for _, step := range []int{0, 20, 30, 40, 60} {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("ckpt-%09d.mdcp", step))); err != nil {
			t.Errorf("checkpoint of step %d: %v", step, err)
		}
	}
}

// TestStoreRecoveryOrder white-boxes the store: newest valid wins;
// truncating the newest demotes recovery to the next older file.
func TestStoreRecoveryOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mdrun.New(baseRun(mdrun.Direct, 108, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := st.save(r.System()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := st.save(r.System()); err != nil {
		t.Fatal(err)
	}

	noCorrupt := func(name string, err error) { t.Errorf("unexpected corrupt %s: %v", name, err) }
	if sys := st.recoverLatest(st.own(), noCorrupt); sys == nil || sys.Steps != 20 {
		t.Fatalf("want newest (step 20), got %v", sys)
	}

	// Truncate the newest; recovery must fall back to step 10.
	newest := st.path(20)
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	sys := st.recoverLatest(st.own(), func(name string, err error) { corrupted++ })
	if sys == nil || sys.Steps != 10 {
		t.Fatalf("want fallback to step 10, got %v", sys)
	}
	if corrupted != 1 {
		t.Fatalf("corrupt callbacks = %d, want 1", corrupted)
	}
}

// TestStorePrunesRetention: only the newest KeepCheckpoints files may
// remain on disk.
func TestStorePrunesRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := newStore(dir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mdrun.New(baseRun(mdrun.Direct, 108, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 5; i++ {
		if _, err := r.Run(5); err != nil {
			t.Fatal(err)
		}
		if err := st.save(r.System()); err != nil {
			t.Fatal(err)
		}
	}
	steps := st.list()
	if len(steps) != 2 || steps[0] != 25 || steps[1] != 20 {
		t.Fatalf("retained %v, want [25 20]", steps)
	}
	// No temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestCheckpointWriteFaultNonFatal: an injected checkpoint-write
// failure at the disk seam must not kill the run — the in-memory
// snapshot still guards it, and the incident is logged.
func TestCheckpointWriteFaultNonFatal(t *testing.T) {
	cfg := baseRun(mdrun.Direct, 108, 1)
	reg := faults.NewRegistry(15).Arm(faults.Fault{
		Site: fsys.SiteWrite, Kind: faults.Error,
		Trigger: faults.Trigger{FromCall: 1},
	})
	sup, err := New(Config{
		Run: cfg, CheckEvery: 5, CheckpointEvery: 5,
		CheckpointDir: t.TempDir(), FS: fsys.Faulty(nil, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	_, rep, err := sup.Run(10)
	if err != nil {
		t.Fatalf("run failed (%v); report: %v", err, rep)
	}
	if rep.Counts.Count(sim.IncidentCheckpointWriteFail) == 0 {
		t.Errorf("write failures never logged: %v", rep)
	}
	if rep.CheckpointsWritten != 0 {
		t.Errorf("checkpoints written = %d with a failing writer", rep.CheckpointsWritten)
	}
}

// TestBackoffDoubles pins the exponential-backoff schedule through the
// injectable sleep hook.
func TestBackoffDoubles(t *testing.T) {
	cfg := baseRun(mdrun.Direct, 108, 1)
	cfg.Faults = faults.NewRegistry(16).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{FromCall: 1},
	})
	var slept []time.Duration
	sup, err := New(Config{
		Run: cfg, CheckEvery: 5, MaxRetries: 3,
		BaseBackoff: time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if _, _, err := sup.Run(20); err == nil {
		t.Fatal("expected give-up")
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

// TestSerialOf pins the serial escalation rung for every method and
// worker count: it keeps the method, drops the sharding (Workers 1)
// and restores the base time step even after a halve-dt rung.
func TestSerialOf(t *testing.T) {
	for _, m := range []mdrun.ForceMethod{mdrun.Direct, mdrun.Pairlist} {
		for _, workers := range []int{0, 1, 4} {
			base := baseRun(m, 108, workers)
			halved := base
			halved.Dt = base.Dt / 2
			s := &Supervisor{base: base, cur: halved}
			got, inc := s.rung(3)
			if inc != sim.IncidentSerialFallback {
				t.Errorf("%v w%d: rung 3 incident %v, want %v", m, workers, inc, sim.IncidentSerialFallback)
			}
			if got.Method != m || got.Workers != 1 || got.Dt != base.Dt {
				t.Errorf("%v w%d: serial rung method/workers/dt = %v/%d/%g, want %v/1/%g",
					m, workers, got.Method, got.Workers, got.Dt, m, base.Dt)
			}
		}
	}
}

// TestSupervisorSingleUse: a second Run must refuse cleanly.
func TestSupervisorSingleUse(t *testing.T) {
	sup, err := New(Config{Run: baseRun(mdrun.Direct, 108, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if _, _, err := sup.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sup.Run(5); err == nil {
		t.Fatal("second Run accepted")
	}
}
