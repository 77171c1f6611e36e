package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsys"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
)

func opts(dev string) runOpts {
	return runOpts{
		devName: dev, atoms: 108, steps: 2, nspe: 2, skin: 0.4,
		mode: "amortized", threading: "full", validate: true, dumpEvery: 1,
		method: "direct", workers: 1,
	}
}

func TestRunEveryDevice(t *testing.T) {
	for _, dev := range []string{"reference", "opteron", "cell", "gpu", "mta"} {
		if err := run(opts(dev)); err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
	}
}

func TestRunPPEOnlyAndModes(t *testing.T) {
	o := opts("cell")
	o.ppeOnly = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = opts("cell")
	o.mode = "respawn"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = opts("mta")
	o.threading = "partial"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	o := opts("warp-drive")
	if err := run(o); err == nil {
		t.Fatal("unknown device accepted")
	}
	o = opts("cell")
	o.mode = "sometimes"
	if err := run(o); err == nil {
		t.Fatal("unknown cell mode accepted")
	}
	o = opts("mta")
	o.threading = "diagonal"
	if err := run(o); err == nil {
		t.Fatal("unknown threading accepted")
	}
	o = opts("reference")
	o.thermostat = "maxwell-daemon"
	if err := run(o); err == nil {
		t.Fatal("unknown thermostat accepted")
	}
}

func TestReferenceForceMethods(t *testing.T) {
	for _, m := range []string{"direct", "pairlist"} {
		o := opts("reference")
		o.atoms = 864 // a box wide enough for the pairlist's cell-binned build
		o.method = m
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	for _, m := range []string{"quantum", "pardirect", "cellgrid"} {
		o := opts("reference")
		o.method = m
		if err := run(o); err == nil {
			t.Fatalf("method %q accepted", m)
		}
	}
}

func TestReferenceParallelForceMethods(t *testing.T) {
	for _, m := range []string{"direct", "pairlist"} {
		for _, workers := range []int{0, 1, 3} {
			o := opts("reference")
			o.atoms = 864 // a box wide enough for the pairlist's cell-binned build
			o.method = m
			o.workers = workers
			if err := run(o); err != nil {
				t.Fatalf("%s workers=%d: %v", m, workers, err)
			}
		}
	}
}

func TestReferenceDumpAndThermostat(t *testing.T) {
	dir := t.TempDir()
	o := opts("reference")
	o.steps = 6
	o.dump = filepath.Join(dir, "t.xyz")
	o.dumpEvery = 2
	o.thermostat = "rescale"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty trajectory")
	}
}

func TestCheckpointSaveAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	o := opts("reference")
	o.steps = 5
	o.saveCkpt = ckpt
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o2 := opts("reference")
	o2.steps = 5
	o2.loadCkpt = ckpt
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	if err := run(runOpts{devName: "reference", atoms: 108, steps: 1, loadCkpt: "/nonexistent"}); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestSaveCheckpointKeepsPreviousOnFailure: -save-checkpoint publishes
// atomically, so a write that fails midway leaves the previous restart
// file byte for byte and no temp file beside it.
func TestSaveCheckpointKeepsPreviousOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.mdcp")
	w, err := core.StandardWorkload(108, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := md.NewSystem(w.State, md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt})
	if err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpoint(fsys.OS, path, sys); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3)
	failing := fsys.Faulty(nil, faults.NewRegistry(1).Arm(faults.Fault{
		Site: fsys.SiteWrite, Kind: faults.Error, Trigger: faults.Trigger{AtCall: 1},
	}))
	if err := saveCheckpoint(failing, path, sys); err == nil {
		t.Fatal("failing write reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("failed save changed the previous restart file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed save, want the one restart file", len(entries))
	}
}

// TestBuildRunConfigPinned pins the config the reference, guarded and
// batch modes build: the standard state, StandardWorkload's cutoff
// (shrunk for a small box) and mdrun's thermostat names, "" for NVE
// and never Langevin.
func TestBuildRunConfigPinned(t *testing.T) {
	cutoffs := map[int]float64{32: 1.6628002294686821, 108: 2.5, 864: 2.5}
	thermostats := map[string]mdrun.ThermostatKind{
		"": mdrun.NVE, "nve": mdrun.NVE, "rescale": mdrun.Rescale, "berendsen": mdrun.Berendsen,
	}
	for n, cutoff := range cutoffs {
		w, err := core.StandardWorkload(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.Cutoff != cutoff {
			t.Fatalf("StandardWorkload(%d) cutoff %v, want %v", n, w.Cutoff, cutoff)
		}
		for name, kind := range thermostats {
			o := opts("reference")
			o.atoms, o.thermostat = n, name
			cfg, err := buildRunConfig(o, nil)
			if err != nil {
				t.Fatalf("%d atoms, %q: %v", n, name, err)
			}
			want := mdrun.Config{
				Atoms: n, Density: core.StdDensity, Temperature: core.StdTemperature,
				Lattice: lattice.FCC, Seed: core.StdSeed, Cutoff: cutoff, Dt: core.StdDt,
				Method: mdrun.Direct, Workers: 1, PairlistSkin: 0.4, Thermostat: kind,
			}
			if cfg != want {
				t.Errorf("%d atoms, %q:\n got %+v\nwant %+v", n, name, cfg, want)
			}
		}
	}
	for _, name := range []string{"langevin", "Rescale", "maxwell-daemon"} {
		o := opts("reference")
		o.thermostat = name
		if _, err := buildRunConfig(o, nil); err == nil {
			t.Errorf("thermostat %q accepted", name)
		}
	}
}
