package guard

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/fsys"
	"repro/internal/mdrun"
	"repro/internal/sim"
)

// frameSteps returns the step number of every frame in an XYZ
// trajectory, in file order.
func frameSteps(xyz string) []string {
	var steps []string
	for _, m := range regexp.MustCompile(`(?m)^step (\d+) `).FindAllStringSubmatch(xyz, -1) {
		steps = append(steps, m[1])
	}
	return steps
}

// TestRolledBackFramesDropped is mdsim's `-guard -method pairlist
// -workers 2 -atoms 864 -steps 40 -inject nan-forces@25 -dump-every 5`:
// NaN forces from the 25th parallel evaluation on walk the ladder down
// to the serial rung, each rung rolling back to the step-0 checkpoint.
// The trajectory must hold the committed run only: one frame per
// 5 steps, 5 through 40, and no NaN.
func TestRolledBackFramesDropped(t *testing.T) {
	cfg := baseRun(mdrun.Pairlist, 864, 2)
	cfg.Faults = faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteParallelForces, Kind: faults.NaN,
		Trigger: faults.Trigger{FromCall: 25},
	})
	var xyz bytes.Buffer
	cfg.Trajectory = &xyz
	cfg.TrajectoryEvery = 5
	sup, err := New(Config{Run: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sum, rep, err := sup.Run(40)
	if err != nil {
		t.Fatalf("guarded run failed (%v); report: %v", err, rep)
	}
	if rep.Rollbacks == 0 {
		t.Fatalf("no rollback: the scenario did not fault; report: %v", rep)
	}
	got := strings.Join(frameSteps(xyz.String()), " ")
	if want := "5 10 15 20 25 30 35 40"; got != want {
		t.Fatalf("trajectory frames at steps %q, want %q", got, want)
	}
	if sum.FramesWritten != 8 {
		t.Errorf("Summary.FramesWritten = %d, want 8", sum.FramesWritten)
	}
	if strings.Contains(xyz.String(), "NaN") {
		t.Fatal("trajectory holds NaN coordinates from a rolled-back segment")
	}
}

// TestCheckpointWriteFailureRollsBackToSnapshot is mdsim's `-guard
// -method pairlist -workers 2 -atoms 864 -steps 40 -checkpoint-dir ck
// -checkpoint-every 10 -inject ckpt-error@25,nan-forces@25 -dump-every
// 5`: the step-20 checkpoint's file write fails, then NaN forces walk
// the ladder. Every rollback restores the step-20 snapshot, not the
// older step-10 file, so the trajectory holds each frame once.
func TestCheckpointWriteFailureRollsBackToSnapshot(t *testing.T) {
	reg := faults.NewRegistry(1).
		Arm(faults.Fault{Site: fsys.SiteWrite, Kind: faults.Error, Trigger: faults.Trigger{AtCall: 25}}).
		Arm(faults.Fault{Site: faults.SiteParallelForces, Kind: faults.NaN, Trigger: faults.Trigger{FromCall: 25}})
	cfg := baseRun(mdrun.Pairlist, 864, 2)
	cfg.Faults = reg
	var xyz bytes.Buffer
	cfg.Trajectory = &xyz
	cfg.TrajectoryEvery = 5
	sup, err := New(Config{
		Run: cfg, CheckpointEvery: 10,
		CheckpointDir: t.TempDir(), FS: fsys.Faulty(nil, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	_, rep, err := sup.Run(40)
	if err != nil {
		t.Fatalf("guarded run failed (%v); report: %v", err, rep)
	}
	var failed []int
	for _, ev := range rep.Events {
		switch ev.Kind {
		case sim.IncidentCheckpointWriteFail:
			failed = append(failed, ev.Step)
		case sim.IncidentRollback:
			if ev.Detail != "rolled back to step 20" {
				t.Errorf("rollback event %q, want the step-20 snapshot", ev.Detail)
			}
		}
	}
	if len(failed) != 1 || failed[0] != 20 || rep.Rollbacks == 0 {
		t.Fatalf("want the step-20 write to fail and a rollback after it; report: %v", rep)
	}
	got := strings.Join(frameSteps(xyz.String()), " ")
	if want := "5 10 15 20 25 30 35 40"; got != want {
		t.Fatalf("trajectory frames at steps %q, want %q", got, want)
	}
}

// failingWriter fails its first fails writes and then accepts.
type failingWriter struct {
	fails int
	buf   bytes.Buffer
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.fails > 0 {
		w.fails--
		return 0, errors.New("disk full")
	}
	return w.buf.Write(p)
}

// TestFrameCopyFailure pins the semantics of a failed copy to the
// caller's writer: a one-off failure rolls back and retries, and the
// trajectory ends up with the uninterrupted run's frames; a writer
// that always fails makes the run give up after MaxRetries copies,
// even though the segments between checkpoints keep committing.
func TestFrameCopyFailure(t *testing.T) {
	run := func(fails int) (*failingWriter, *RunReport, error) {
		cfg := baseRun(mdrun.Pairlist, 256, 1)
		w := &failingWriter{fails: fails}
		cfg.Trajectory = w
		cfg.TrajectoryEvery = 5
		sup, err := New(Config{Run: cfg, CheckEvery: 5, CheckpointEvery: 20})
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Close()
		_, rep, err := sup.Run(40)
		return w, rep, err
	}

	clean, _, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	once, rep, err := run(1)
	if err != nil {
		t.Fatalf("one failed copy: %v; report: %v", err, rep)
	}
	if rep.Rollbacks != 1 {
		t.Errorf("one failed copy: %d rollbacks, want 1", rep.Rollbacks)
	}
	if !bytes.Equal(once.buf.Bytes(), clean.buf.Bytes()) {
		t.Errorf("after a retried copy the trajectory has frames %v, want the clean run's %v",
			frameSteps(once.buf.String()), frameSteps(clean.buf.String()))
	}

	_, rep, err = run(1 << 30)
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("always-failing writer: err %v, want a give-up; report: %v", err, rep)
	}
	if rep.Rollbacks != 3 {
		t.Errorf("always-failing writer: %d rollbacks, want 3 (the default MaxRetries)", rep.Rollbacks)
	}
}
