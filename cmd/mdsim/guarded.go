package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fsys"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/mdrun"
	"repro/internal/parallel"
)

// runGuarded executes the reference simulation under the resilient run
// supervisor: numerical-health watchdog, atomic checkpoint/rollback
// recovery, and the retry → halve-dt → serial escalation ladder.
func runGuarded(o runOpts) (err error) {
	if o.devName != "reference" {
		return fmt.Errorf("-guard supervises only -device reference (got %q)", o.devName)
	}
	inj, err := parseInject(o.inject)
	if err != nil {
		return err
	}

	cfg, err := buildRunConfig(o, inj)
	if err != nil {
		return err
	}
	cfg.Workers = parallel.ClampWorkers(o.workers)
	if o.dump != "" {
		f, ferr := os.Create(o.dump)
		if ferr != nil {
			return ferr
		}
		// Same contract as runReference: a trajectory that failed to
		// reach the disk fails the run.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trajectory %s: %w", o.dump, cerr)
			}
		}()
		cfg.Trajectory = f
		if o.dumpEvery >= 1 {
			cfg.TrajectoryEvery = o.dumpEvery
		}
	}

	sup, err := guard.New(guard.Config{
		Run:             cfg,
		CheckpointDir:   o.ckptDir,
		CheckpointEvery: o.ckptEvery,
		MaxRetries:      o.maxRetries,
		FS:              fsys.Faulty(nil, inj),
	})
	if err != nil {
		return err
	}
	defer sup.Close()

	sum, rep, err := sup.Run(o.steps)
	for _, ev := range rep.Events {
		fmt.Printf("guard: step %-6d attempt %d  %-15v %s\n", ev.Step, ev.Attempt, ev.Kind, ev.Detail)
	}
	fmt.Printf("guard: %s\n", rep)
	if err != nil {
		return err
	}
	fmt.Printf("guarded MD: %d atoms, %d steps, method %v, workers %d\n",
		o.atoms, sum.Steps, rep.FinalMethod, rep.FinalWorkers)
	fmt.Printf("energy:      initial %.6f  final %.6f\n", sum.InitialEnergy, sum.FinalEnergy)
	fmt.Printf("temperature: %.4f (target %.4f)\n", sum.MeanTemperature, core.StdTemperature)
	fmt.Printf("pressure:    %.4f\n", sum.Pressure)
	return nil
}

// buildRunConfig assembles the standard-workload mdrun config the
// reference, guarded and batch modes share: the paper's LJ argon state with the
// StandardWorkload small-system cutoff reduction. Workers is -workers
// as given; each mode resolves 0 its own way.
func buildRunConfig(o runOpts, inj faults.Injector) (mdrun.Config, error) {
	method, err := mdrun.ParseMethod(o.method)
	if err != nil {
		return mdrun.Config{}, err
	}
	cfg := mdrun.Config{
		Atoms: o.atoms, Density: core.StdDensity, Temperature: core.StdTemperature,
		Lattice: lattice.FCC, Seed: core.StdSeed,
		Cutoff: core.StdCutoff, Dt: core.StdDt,
		Method: method, Workers: o.workers, PairlistSkin: o.skin,
		Faults: inj,
	}
	// Match StandardWorkload's small-system cutoff reduction.
	if box := math.Cbrt(float64(o.atoms) / core.StdDensity); 2*cfg.Cutoff > box {
		cfg.Cutoff = box / 2 * 0.99
	}
	switch o.thermostat {
	case "":
		cfg.Thermostat = mdrun.NVE
	case "rescale":
		cfg.Thermostat = mdrun.Rescale
	case "berendsen":
		cfg.Thermostat = mdrun.Berendsen
	default:
		return mdrun.Config{}, fmt.Errorf("unknown thermostat %q (want rescale|berendsen)", o.thermostat)
	}
	return cfg, nil
}

// parseInject translates comma-separated fault specs into an armed
// registry (nil for the empty spec). Each spec is kind@N:
//
//	nan-forces@N    poison the parallel force output from kernel call N on
//	worker-panic@N  panic inside the worker pool at task N
//	traj-error@N    fail the trajectory writer at write N
//	ckpt-error@N    fail checkpoint-file write N at the disk seam
//	                (fsys.SiteWrite, armed on the guard's FS)
func parseInject(spec string) (faults.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	reg := faults.NewRegistry(1)
	for _, part := range strings.Split(spec, ",") {
		kind, at, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("bad -inject spec %q (want kind@N)", part)
		}
		n, err := strconv.Atoi(at)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -inject call number %q (want a positive integer)", at)
		}
		switch kind {
		case "nan-forces":
			reg.Arm(faults.Fault{Site: faults.SiteParallelForces, Kind: faults.NaN,
				Trigger: faults.Trigger{FromCall: n}})
		case "worker-panic":
			reg.Arm(faults.Fault{Site: faults.SiteWorker, Kind: faults.Panic,
				Trigger: faults.Trigger{AtCall: n}})
		case "traj-error":
			reg.Arm(faults.Fault{Site: faults.SiteTrajectory, Kind: faults.Error,
				Trigger: faults.Trigger{AtCall: n}})
		case "ckpt-error":
			reg.Arm(faults.Fault{Site: fsys.SiteWrite, Kind: faults.Error,
				Trigger: faults.Trigger{AtCall: n}})
		default:
			return nil, fmt.Errorf("unknown -inject kind %q (want nan-forces|worker-panic|traj-error|ckpt-error)", kind)
		}
	}
	return reg, nil
}
