// Command mdsim runs the paper's MD kernel on one modeled device and
// reports the physics (energies, temperature) together with the modeled
// runtime and its component breakdown.
//
// Usage:
//
//	mdsim -device opteron -atoms 2048 -steps 10
//	mdsim -device cell -nspe 8 -mode amortized
//	mdsim -device cell -ppe-only
//	mdsim -device gpu
//	mdsim -device mta -threading partial
//	mdsim -device reference        # pure physics, no performance model
//	mdsim -device reference -method direct -workers 8   # multicore host kernel
//	mdsim -guard -method pairlist -workers 4 -atoms 864 -checkpoint-dir /tmp/ckpt \
//	      -inject nan-forces@25   # supervised run with fault injection
//	mdsim -batch 8 -max-inflight 4 -replica-timeout 30s \
//	      -inject nan-forces@25   # replica fleet; the fault hits replica 0 only
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/mta"
	"repro/internal/parallel"
	"repro/internal/report"
)

func main() {
	var (
		devName   = flag.String("device", "reference", "reference|opteron|cell|gpu|mta")
		atoms     = flag.Int("atoms", 2048, "number of atoms")
		steps     = flag.Int("steps", 10, "velocity-Verlet steps")
		nspe      = flag.Int("nspe", 8, "cell: SPEs to use (1..8)")
		mode      = flag.String("mode", "amortized", "cell: amortized|respawn")
		ppeOnly   = flag.Bool("ppe-only", false, "cell: run everything on the PPE")
		threading = flag.String("threading", "full", "mta: full|partial")
		validate  = flag.Bool("validate", true, "cross-check physics against the reference implementation")
		dump      = flag.String("dump", "", "reference: write an XYZ trajectory to this file")
		every     = flag.Int("dump-every", 10, "reference: frames written every N steps")
		thermo    = flag.String("thermostat", "", "reference: ''|rescale|berendsen (hold the standard temperature)")
		method    = flag.String("method", "direct", "reference: direct|pairlist force evaluation")
		workers   = flag.Int("workers", 1, "reference: host force workers (1 = serial kernel, 0 = one per CPU; in -batch, 0 shares the CPUs across in-flight replicas)")
		skin      = flag.Float64("skin", 0.4, "reference: Verlet-list skin width for the pairlist method")
		saveCkpt  = flag.String("save-checkpoint", "", "reference: write a restart file after the run")
		loadCkpt  = flag.String("load-checkpoint", "", "reference: resume from a restart file (ignores -atoms)")
		guarded   = flag.Bool("guard", false, "reference: run under the resilient supervisor (watchdog + checkpoint/rollback recovery)")
		ckptDir   = flag.String("checkpoint-dir", "", "guard: directory for periodic atomic checkpoints")
		ckptEvery = flag.Int("checkpoint-every", 100, "guard: steps between checkpoints")
		retries   = flag.Int("max-retries", 3, "guard: recovery attempts before giving up")
		inject    = flag.String("inject", "", "guard: fault spec, comma-separated, e.g. nan-forces@25 | worker-panic@3 | traj-error@2 | ckpt-error@1 (checkpoint-file write N fails at the disk seam; needs -checkpoint-dir)")
		batch     = flag.Int("batch", 0, "run N supervised replicas over the fleet scheduler (0 = single run)")
		inflight  = flag.Int("max-inflight", 0, "batch: replicas running concurrently (0 = one per CPU)")
		queue     = flag.Int("queue-depth", 0, "batch: admission queue bound; excess replicas are shed (0 = admit the whole batch)")
		repTO     = flag.Duration("replica-timeout", 0, "batch: per-replica deadline, e.g. 30s (0 = none)")
	)
	flag.Parse()
	o := runOpts{
		devName: *devName, atoms: *atoms, steps: *steps, nspe: *nspe,
		mode: *mode, ppeOnly: *ppeOnly, threading: *threading, validate: *validate,
		dump: *dump, dumpEvery: *every, thermostat: *thermo, method: *method,
		workers: *workers, skin: *skin, saveCkpt: *saveCkpt, loadCkpt: *loadCkpt,
		guard: *guarded, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
		maxRetries: *retries, inject: *inject,
		batch: *batch, maxInflight: *inflight, queueDepth: *queue, replicaTimeout: *repTO,
	}
	if err := validateOpts(o); err != nil {
		fmt.Fprintln(os.Stderr, "mdsim:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mdsim:", err)
		os.Exit(1)
	}
}

// validateOpts rejects flag values that would otherwise fail deep
// inside a run (or silently do nothing), so bad invocations exit
// immediately with a usage error.
func validateOpts(o runOpts) error {
	if o.steps < 1 {
		return fmt.Errorf("-steps %d: want a positive step count", o.steps)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d: want >= 0 (0 = one per CPU)", o.workers)
	}
	if !(o.skin > 0) {
		return fmt.Errorf("-skin %v: want a positive skin width", o.skin)
	}
	if o.ckptEvery < 1 {
		return fmt.Errorf("-checkpoint-every %d: want a positive step interval", o.ckptEvery)
	}
	if o.batch < 0 {
		return fmt.Errorf("-batch %d: want >= 0 (0 = single run)", o.batch)
	}
	if o.maxInflight < 0 {
		return fmt.Errorf("-max-inflight %d: want >= 0 (0 = one per CPU)", o.maxInflight)
	}
	if o.queueDepth < 0 {
		return fmt.Errorf("-queue-depth %d: want >= 0 (0 = max-inflight)", o.queueDepth)
	}
	if o.replicaTimeout < 0 {
		return fmt.Errorf("-replica-timeout %v: want >= 0 (0 = no deadline)", o.replicaTimeout)
	}
	// Parse the fault spec, the method and the thermostat in every mode
	// so an unknown value is an immediate usage error, not a silently
	// ignored flag.
	if _, err := parseInject(o.inject); err != nil {
		return err
	}
	if _, err := buildRunConfig(o, nil); err != nil {
		return err
	}
	return nil
}

// runOpts carries the parsed flags.
type runOpts struct {
	devName      string
	atoms, steps int
	nspe         int
	mode         string
	ppeOnly      bool
	threading    string
	validate     bool
	dump         string
	dumpEvery    int
	thermostat   string
	method       string
	workers      int
	skin         float64
	saveCkpt     string
	loadCkpt     string
	guard        bool
	ckptDir      string
	ckptEvery    int
	maxRetries   int
	inject       string

	batch          int
	maxInflight    int
	queueDepth     int
	replicaTimeout time.Duration
}

func run(o runOpts) error {
	if o.batch > 0 {
		return runBatch(o)
	}
	if o.guard {
		return runGuarded(o)
	}

	w, err := core.StandardWorkload(o.atoms, o.steps)
	if err != nil {
		return err
	}

	if o.devName == "reference" {
		return runReference(w, o)
	}

	dev, tol, err := buildDevice(o.devName, o.nspe, o.mode, o.ppeOnly, o.threading)
	if err != nil {
		return err
	}
	res, err := dev.Run(w)
	if err != nil {
		return err
	}
	if o.validate {
		if err := core.Validate(res, w, tol); err != nil {
			return err
		}
		fmt.Println("physics: validated against the reference implementation")
	}
	fmt.Printf("device:   %s (%s)\n", res.Device, res.Variant)
	fmt.Printf("workload: %d atoms, %d steps, cutoff %.3g, dt %.3g\n", res.N, res.Steps, w.Cutoff, w.Dt)
	fmt.Printf("energy:   PE %.6f  KE %.6f  total %.6f\n", res.PE, res.KE, res.PE+res.KE)
	fmt.Printf("modeled runtime: %s\n", report.Seconds(res.Seconds()))
	for _, label := range res.Time.Labels() {
		fmt.Printf("  %-10s %s\n", label, report.Seconds(res.Time.Component(label)))
	}
	if res.Ledger.Total() > 0 {
		fmt.Printf("op mix:   %s\n", res.Ledger.String())
	}
	return nil
}

func runReference(w device.Workload, o runOpts) (err error) {
	cfg, err := buildRunConfig(o, nil)
	if err != nil {
		return err
	}
	var sys *md.System[float64]
	if o.loadCkpt != "" {
		f, err := os.Open(o.loadCkpt)
		if err != nil {
			return err
		}
		sys, err = md.ReadCheckpoint(f)
		_ = f.Close() // read path; the checkpoint CRC already vouched for the payload
		if err != nil {
			return err
		}
		fmt.Printf("resumed from %s at step %d (%d atoms)\n", o.loadCkpt, sys.Steps, sys.N())
	} else {
		p := md.Params[float64]{Box: w.State.Box, Cutoff: w.Cutoff, Dt: w.Dt}
		var err error
		sys, err = md.NewSystem(w.State, p)
		if err != nil {
			return err
		}
	}
	// The system, fresh or restored, keeps its own numerics.
	cfg.Cutoff, cfg.Dt, cfg.Shifted = sys.P.Cutoff, sys.P.Dt, sys.P.Shifted
	cfg.Workers = parallel.ClampWorkers(o.workers)
	cfg.Tau = 0.1
	if o.dump != "" {
		f, ferr := os.Create(o.dump)
		if ferr != nil {
			return ferr
		}
		// A trajectory that failed to hit the disk must fail the run:
		// surface the close error unless an earlier error already did.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trajectory %s: %w", o.dump, cerr)
			}
		}()
		cfg.Trajectory = f
		cfg.TrajectoryEvery = max(o.dumpEvery, 1)
	}
	r, err := mdrun.NewFromSystem(sys, cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	if r.Workers() > 1 {
		fmt.Printf("force method: %v, %d host workers\n", cfg.Method, r.Workers())
	}
	sum, err := r.Run(w.Steps)
	if err != nil {
		return err
	}
	if o.dump != "" {
		fmt.Printf("trajectory: %d frames -> %s\n", sum.FramesWritten, o.dump)
	}
	e0 := sum.InitialEnergy
	fmt.Printf("reference MD: %d atoms, %d steps, box %.4g, cutoff %.3g\n", sys.N(), w.Steps, w.State.Box, w.Cutoff)
	fmt.Printf("energy:      PE %.6f  KE %.6f  total %.6f\n", sys.PE, sys.KE, sys.TotalEnergy())
	fmt.Printf("temperature: %.4f (target %.4f)\n", sys.Temperature(), core.StdTemperature)
	if cfg.Thermostat == mdrun.NVE {
		fmt.Printf("energy drift over run: %.3g (relative)\n",
			abs((sys.TotalEnergy()-e0)/e0))
	} else {
		fmt.Printf("energy change from thermostat coupling: %.3g (relative; not integrator drift)\n",
			abs((sys.TotalEnergy()-e0)/e0))
	}
	mom := sys.Momentum()
	fmt.Printf("net momentum: (%.2e, %.2e, %.2e)\n", mom.X, mom.Y, mom.Z)
	if o.saveCkpt != "" {
		f, err := os.Create(o.saveCkpt)
		if err != nil {
			return err
		}
		if err := md.WriteCheckpoint(f, sys); err != nil {
			f.Close() //mdlint:ignore closeerr the checkpoint write already failed; its error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("checkpoint: step %d -> %s\n", sys.Steps, o.saveCkpt)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func buildDevice(name string, nspe int, mode string, ppeOnly bool, threading string) (device.Device, float64, error) {
	switch name {
	case "opteron":
		return core.NewOpteron(), core.TolDouble, nil
	case "cell":
		if ppeOnly {
			d, err := core.NewCellPPEOnly()
			return d, core.TolSingle, err
		}
		var m cell.Mode
		switch mode {
		case "amortized":
			m = cell.LaunchOnce
		case "respawn":
			m = cell.RespawnEachStep
		default:
			return nil, 0, fmt.Errorf("unknown cell mode %q (want amortized|respawn)", mode)
		}
		d, err := core.NewCell(nspe, m)
		return d, core.TolSingle, err
	case "gpu":
		d, err := core.NewGPU()
		return d, core.TolSingle, err
	case "mta":
		var th mta.Threading
		switch threading {
		case "full":
			th = mta.FullyThreaded
		case "partial":
			th = mta.PartiallyThreaded
		default:
			return nil, 0, fmt.Errorf("unknown mta threading %q (want full|partial)", threading)
		}
		d, err := core.NewMTA(th)
		return d, core.TolDouble, err
	default:
		return nil, 0, fmt.Errorf("unknown device %q (want reference|opteron|cell|gpu|mta)", name)
	}
}
