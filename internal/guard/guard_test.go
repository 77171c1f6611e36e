package guard

import (
	"bytes"
	"fmt"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// invisible. For runs shorter than, equal to and not a multiple of the
// watchdog segment, the guarded state, every Summary field (the
// observables and frame count included) and the trajectory bytes are
// the plain runner's bit for bit, the report shows zero incidents, and
// checkpoints land on disk.
func TestCleanRunMatchesPlainRun(t *testing.T) {
	thermostats := []mdrun.ThermostatKind{mdrun.NVE, mdrun.Rescale, mdrun.Berendsen}
	for _, m := range []mdrun.ForceMethod{mdrun.Direct, mdrun.Pairlist} {
		for _, th := range thermostats {
			for _, every := range []int{5, 10} {
				for _, steps := range []int{0, 20, 25, 29} {
					t.Run(fmt.Sprintf("%v/%v/check%d/%d-steps", m, th, every, steps), func(t *testing.T) {
						checkCleanRun(t, m, th, every, every, steps)
					})
				}
			}
			// A checkpoint cadence that is not the segment cadence.
			t.Run(fmt.Sprintf("%v/%v/check10-ckpt20/50-steps", m, th), func(t *testing.T) {
				checkCleanRun(t, m, th, 10, 20, 50)
			})
		}
	}
}

func checkCleanRun(t *testing.T, m mdrun.ForceMethod, th mdrun.ThermostatKind, every, ckptEvery, steps int) {
	cfg := baseRun(m, 256, 1)
	cfg.Thermostat = th
	cfg.SampleRDF = true
	cfg.SampleEvery = 4
	cfg.TrajectoryEvery = 7

	var plainXYZ, guardXYZ bytes.Buffer
	cfg.Trajectory = &plainXYZ
	plain, err := mdrun.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want, err := plain.Run(steps)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Trajectory = &guardXYZ
	sup, err := New(Config{
		Run: cfg, CheckEvery: every, CheckpointEvery: ckptEvery,
		CheckpointDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	got, rep, err := sup.Run(steps)
	if err != nil {
		t.Fatalf("guarded run failed (%v); report: %v", err, rep)
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
	if a.PE != b.PE || a.KE != b.KE {
		t.Fatalf("guarded energies diverged: PE %v vs %v, KE %v vs %v", a.PE, b.PE, a.KE, b.KE)
	}
	// %v prints each float in its shortest round-trip form, so equal
	// text is equal bits.
	if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
		t.Fatalf("guarded Summary\n%s\nwant the plain run's\n%s", g, w)
	}
	if !bytes.Equal(guardXYZ.Bytes(), plainXYZ.Bytes()) {
		t.Fatalf("guarded trajectory (%d bytes) differs from the plain run's (%d bytes)",
			guardXYZ.Len(), plainXYZ.Len())
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
	if rep.Rollbacks != 3 {
		t.Errorf("rollbacks = %d, want 3", rep.Rollbacks)
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

// TestRetryRecoveryKeepsRescalePhase pins that a runner rebuilt after a
// rollback kicks on the uninterrupted run's steps: a one-shot NaN in
// step 27 rolls a 5-step-segment Rescale run back to its step-25
// checkpoint, and the plain retry must end on the uninterrupted run's
// state bit for bit.
func TestRetryRecoveryKeepsRescalePhase(t *testing.T) {
	const steps = 50
	cfg := baseRun(mdrun.Pairlist, 256, 1)
	cfg.Thermostat = mdrun.Rescale

	plain, err := mdrun.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	want, err := plain.Run(steps)
	if err != nil {
		t.Fatal(err)
	}

	// Force call 1 is New's initial evaluation; step k makes call k+1.
	cfg.Faults = faults.NewRegistry(17).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{AtCall: 28},
	})
	sup, err := New(Config{Run: cfg, CheckEvery: 5, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	got, rep, err := sup.Run(steps)
	if err != nil {
		t.Fatalf("run failed (%v); report: %v", err, rep)
	}
	restored := -1
	for _, ev := range rep.Events {
		if ev.Kind == sim.IncidentRollback {
			restored = ev.Step
		}
	}
	if rep.Rollbacks != 1 || restored != 25 {
		t.Fatalf("want one rollback to step 25, got %d to step %d; report: %v", rep.Rollbacks, restored, rep)
	}
	a, b := plain.System(), sup.System()
	for i := 0; i < a.N(); i++ {
		if a.Pos.At(i) != b.Pos.At(i) || a.Vel.At(i) != b.Vel.At(i) {
			t.Fatalf("recovered run diverged at atom %d", i)
		}
	}
	if got.FinalEnergy != want.FinalEnergy {
		t.Fatalf("recovered final energy %.9f, uninterrupted %.9f", got.FinalEnergy, want.FinalEnergy)
	}
	// The rebuilt runner's observables cover the steps after the
	// restored one; Steps still counts the whole supervised run.
	if got.StartStep != 25 || got.Steps != steps {
		t.Fatalf("Summary window starts at step %d over %d steps, want 25 and %d", got.StartStep, got.Steps, steps)
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
	if rep.Completed || rep.Rollbacks != 3 {
		t.Errorf("report = %v, want 3 rollbacks, not completed", rep)
	}
	if rep.Counts.Count(sim.IncidentSerialFallback) != 1 {
		t.Errorf("serial rung never tried: %v", rep)
	}
	if rep.Counts.Count(sim.IncidentNaN) != 4 {
		t.Errorf("NaN detections = %d, want 4 (initial + 3 retries)", rep.Counts.Count(sim.IncidentNaN))
	}
}

// TestCorruptCheckpointSkipped: a checkpoint file truncated behind the
// run's back after it was published never reaches the run — the
// rollback restores the in-memory snapshot of that checkpoint — and a
// resume, which does read the directory, skips it (reported through
// onCorrupt) in favor of an older valid one. Renames fail from the
// third checkpoint on, so the truncated step-5 file stays the newest.
func TestCorruptCheckpointSkipped(t *testing.T) {
	dir := t.TempDir()
	cfg := baseRun(mdrun.Direct, 108, 2)
	cfg.Faults = faults.NewRegistry(14).Arm(faults.Fault{
		Site: faults.SiteWorker, Kind: faults.Panic,
		Trigger: faults.Trigger{AtCall: 15},
	})
	disk := faults.NewRegistry(14).Arm(faults.Fault{
		Site: fsys.SiteRename, Kind: faults.Error,
		Trigger: faults.Trigger{FromCall: 3},
	})
	sup, err := New(Config{
		Run: cfg, CheckEvery: 5, CheckpointEvery: 5,
		CheckpointDir: dir, KeepCheckpoints: 100, FS: fsys.Faulty(nil, disk),
		// The step-5 commit has just published ckpt-5: corrupt it
		// before the next segment's rollback.
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
	if !rep.Completed || rep.Rollbacks != 1 {
		t.Errorf("report = %v, want completed with 1 rollback", rep)
	}
	for _, ev := range rep.Events {
		if ev.Kind == sim.IncidentRollback && ev.Detail != "rolled back to step 5" {
			t.Errorf("rollback event %q, want the step-5 snapshot", ev.Detail)
		}
	}
	if sup.System().Steps != 20 {
		t.Errorf("final steps %d, want 20", sup.System().Steps)
	}

	var corrupt []string
	sys := LatestCheckpoint(nil, dir, func(name string, err error) { corrupt = append(corrupt, name) })
	if sys == nil || sys.Steps != 0 {
		t.Fatalf("LatestCheckpoint = %v, want the step-0 file", sys)
	}
	if len(corrupt) != 1 || corrupt[0] != "ckpt-000000005.mdcp" {
		t.Errorf("reported corrupt %v, want [ckpt-000000005.mdcp]", corrupt)
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

// TestStoreRecoveryOrder: the store lists its files newest first, and
// LatestCheckpoint returns the newest valid one; truncating the newest
// demotes it to the next older file.
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
	if steps := st.list(); len(steps) != 2 || steps[0] != 20 || steps[1] != 10 {
		t.Fatalf("list = %v, want [20 10]", steps)
	}

	noCorrupt := func(name string, err error) { t.Errorf("unexpected corrupt %s: %v", name, err) }
	if sys := LatestCheckpoint(nil, dir, noCorrupt); sys == nil || sys.Steps != 20 {
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
	sys := LatestCheckpoint(nil, dir, func(name string, err error) { corrupted++ })
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

// countingFS counts the directory listings and removals that reach
// the filesystem beneath it.
type countingFS struct {
	fsys.FS
	readDirs, removes int
}

func (c *countingFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	c.readDirs++
	return c.FS.ReadDir(name)
}

func (c *countingFS) Remove(name string) error {
	c.removes++
	return c.FS.Remove(name)
}

// TestCheckpointsListNoDirectory: a guarded run writes and prunes its
// checkpoints without listing the directory, and retention still
// leaves exactly this run's newest KeepCheckpoints files beside a
// file it did not write.
func TestCheckpointsListNoDirectory(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "ckpt-000000100.mdcp")
	if err := os.WriteFile(foreign, []byte("another run"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfs := &countingFS{FS: fsys.OS}
	sup, err := New(Config{
		Run: baseRun(mdrun.Direct, 108, 1), CheckEvery: 5, CheckpointEvery: 5,
		CheckpointDir: dir, KeepCheckpoints: 3, FS: cfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	_, rep, err := sup.Run(40)
	if err != nil {
		t.Fatalf("run failed (%v); report: %v", err, rep)
	}
	if rep.CheckpointsWritten != 9 {
		t.Fatalf("checkpoints written = %d, want 9 (steps 0, 5, ..., 40)", rep.CheckpointsWritten)
	}
	if cfs.readDirs != 0 {
		t.Errorf("run listed the checkpoint directory %d times, want 0", cfs.readDirs)
	}
	if cfs.removes != 6 {
		t.Errorf("run removed %d files, want the 6 checkpoints past retention", cfs.removes)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"ckpt-000000030.mdcp", "ckpt-000000035.mdcp", "ckpt-000000040.mdcp", "ckpt-000000100.mdcp"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("directory holds %v, want %v", names, want)
	}
}

// TestFailedRemoveRetried: a checkpoint whose prune fails stays on the
// store's list and is removed by the next save.
func TestFailedRemoveRetried(t *testing.T) {
	dir := t.TempDir()
	disk := faults.NewRegistry(3).Arm(faults.Fault{
		Site: fsys.SiteRemove, Kind: faults.Error,
		Trigger: faults.Trigger{AtCall: 1},
	})
	st, err := newStore(dir, 1, fsys.Faulty(nil, disk))
	if err != nil {
		t.Fatal(err)
	}
	r, err := mdrun.New(baseRun(mdrun.Direct, 108, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range [][]int{{0}, {5, 0}, {10}} {
		if i > 0 {
			if _, err := r.Run(5); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.save(r.System()); err != nil {
			t.Fatal(err)
		}
		if got := st.list(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after save %d: on disk %v, want %v", i, got, want)
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

// TestNegativeConfigRejected: a negative watchdog stride, checkpoint
// cadence, retention or recovery budget is refused by both constructors before any runner is built,
// and zero still means the default.
func TestNegativeConfigRejected(t *testing.T) {
	r, err := mdrun.New(baseRun(mdrun.Direct, 108, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys := r.System().Clone()
	r.Close()
	ctors := map[string]func(Config) (*Supervisor, error){
		"New":           New,
		"NewFromSystem": func(c Config) (*Supervisor, error) { return NewFromSystem(sys.Clone(), c) },
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative CheckEvery", func(c *Config) { c.CheckEvery = -5 }, "CheckEvery (-5)"},
		{"negative CheckpointEvery", func(c *Config) { c.CheckpointEvery = -5 }, "CheckpointEvery (-5)"},
		{"negative KeepCheckpoints", func(c *Config) { c.KeepCheckpoints = -1 }, "KeepCheckpoints (-1)"},
		{"negative MaxRetries", func(c *Config) { c.MaxRetries = -1 }, "MaxRetries (-1)"},
	}
	for name, ctor := range ctors {
		for _, tc := range cases {
			cfg := Config{Run: baseRun(mdrun.Direct, 108, 1)}
			tc.mut(&cfg)
			sup, err := ctor(cfg)
			if err == nil {
				sup.Close()
				t.Errorf("%s, %s: accepted", name, tc.name)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: error %q does not mention %q", name, tc.name, err, tc.want)
			}
		}
		sup, err := ctor(Config{Run: baseRun(mdrun.Direct, 108, 1)})
		if err != nil {
			t.Fatalf("%s, zero values: %v", name, err)
		}
		if c := sup.cfg; c.CheckEvery != 10 || c.CheckpointEvery != 100 || c.KeepCheckpoints != 3 || c.MaxRetries != 3 {
			t.Errorf("%s, zero values: CheckEvery %d, CheckpointEvery %d, KeepCheckpoints %d, MaxRetries %d; want the defaults 10, 100, 3 and 3",
				name, c.CheckEvery, c.CheckpointEvery, c.KeepCheckpoints, c.MaxRetries)
		}
		sup.Close()
	}
}
