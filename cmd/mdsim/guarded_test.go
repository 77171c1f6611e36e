package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func guardOpts() runOpts {
	o := opts("reference")
	o.guard = true
	o.steps = 20
	return o
}

func TestGuardedCleanRun(t *testing.T) {
	o := guardOpts()
	o.ckptDir = t.TempDir()
	o.ckptEvery = 5
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(o.ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), ".mdcp") {
			found = true
		}
	}
	if !found {
		t.Fatal("guarded run left no checkpoint files")
	}
}

func TestGuardedRecoversFromInjectedFaults(t *testing.T) {
	// Worker panic: one-shot, plain retry suffices.
	o := guardOpts()
	o.method = "direct"
	o.workers = 3
	o.inject = "worker-panic@10"
	if err := run(o); err != nil {
		t.Fatalf("worker-panic recovery failed: %v", err)
	}

	// NaN forces under the parallel pairlist: full ladder to serial.
	o = guardOpts()
	o.atoms = 864
	o.steps = 30
	o.method = "pairlist"
	o.workers = 4
	o.ckptDir = t.TempDir()
	o.ckptEvery = 10
	o.inject = "nan-forces@12"
	if err := run(o); err != nil {
		t.Fatalf("nan-forces recovery failed: %v", err)
	}
}

// stdoutOf runs f and returns what it printed to standard output.
func stdoutOf(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	saved := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = saved
	_ = w.Close() // the reader sees EOF; nothing else was written through w
	return <-out, ferr
}

// TestGuardedCheckpointWriteFault: ckpt-error@1 fails the first
// checkpoint-file write at the disk seam. The run must complete on
// its in-memory snapshot and report exactly one write failure.
func TestGuardedCheckpointWriteFault(t *testing.T) {
	o := guardOpts()
	o.ckptDir = t.TempDir()
	o.ckptEvery = 5
	o.inject = "ckpt-error@1"
	out, err := stdoutOf(t, func() error { return run(o) })
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "guard: completed") || !strings.Contains(out, "[ckpt-write-fail=1]") {
		t.Fatalf("want a completed run reporting [ckpt-write-fail=1], got:\n%s", out)
	}
}

func TestGuardedTrajectoryAndThermostat(t *testing.T) {
	o := guardOpts()
	o.thermostat = "berendsen"
	o.dump = filepath.Join(t.TempDir(), "g.xyz")
	o.dumpEvery = 5
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty guarded trajectory")
	}
}

func TestGuardedRejectsBadFlags(t *testing.T) {
	o := guardOpts()
	o.devName = "gpu"
	if err := run(o); err == nil {
		t.Fatal("guard accepted a modeled device")
	}
	o = guardOpts()
	o.method = "quantum"
	if err := run(o); err == nil {
		t.Fatal("guard accepted unknown method")
	}
	o = guardOpts()
	o.thermostat = "maxwell-daemon"
	if err := run(o); err == nil {
		t.Fatal("guard accepted unknown thermostat")
	}
	for _, spec := range []string{"nan-forces", "bitrot@3", "nan-forces@0", "nan-forces@x"} {
		o = guardOpts()
		o.inject = spec
		if err := run(o); err == nil {
			t.Fatalf("bad inject spec %q accepted", spec)
		}
	}
}

func TestParseInjectSpecs(t *testing.T) {
	if inj, err := parseInject(""); err != nil || inj != nil {
		t.Fatalf("empty spec: %v, %v", inj, err)
	}
	inj, err := parseInject("nan-forces@5, worker-panic@2,traj-error@1,ckpt-error@3")
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("nil injector for non-empty spec")
	}
}
