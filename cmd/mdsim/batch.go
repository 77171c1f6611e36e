package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fsys"
	"repro/internal/guard"
)

// runBatch executes -batch N supervised replicas over the fleet
// scheduler: one guard.Supervisor per replica, a shared bounded worker
// budget, per-replica deadlines, and load shedding under overload.
// Replica i perturbs the base seed by i (a seed sweep — the ensemble
// shape of parameter sweeps and replica exchange); the -inject fault
// spec, if any, arms replica 0 only, so a poisoned replica's isolation
// from its siblings is directly observable.
func runBatch(o runOpts) error {
	if o.devName != "reference" {
		return fmt.Errorf("-batch supervises only -device reference (got %q)", o.devName)
	}
	inj, err := parseInject(o.inject)
	if err != nil {
		return err
	}

	reps := make([]fleet.Replica, o.batch)
	for i := range reps {
		cfg, err := buildRunConfig(o, nil)
		if err != nil {
			return err
		}
		cfg.Seed = core.StdSeed + uint64(i)
		g := guard.Config{
			Run:             cfg,
			CheckpointEvery: o.ckptEvery,
			MaxRetries:      o.maxRetries,
		}
		if i == 0 {
			g.Run.Faults = inj
			g.FS = fsys.Faulty(nil, inj)
		}
		if o.ckptDir != "" {
			g.CheckpointDir = filepath.Join(o.ckptDir, fmt.Sprintf("r%03d", i))
		}
		reps[i] = fleet.Replica{ID: i, Guard: g, Steps: o.steps}
	}

	fcfg := fleet.Config{
		MaxInflight:    o.maxInflight,
		QueueDepth:     o.queueDepth,
		ReplicaTimeout: o.replicaTimeout,
	}
	// RunBatch submits the whole batch in one burst, so the queue alone
	// bounds admission. Default to admitting every requested replica;
	// shedding kicks in only when -queue-depth is set explicitly.
	if o.queueDepth == 0 {
		fcfg.QueueDepth = o.batch
	}
	rep := fleet.RunBatch(context.Background(), fcfg, reps)

	for i := range rep.Results {
		r := &rep.Results[i]
		line := fmt.Sprintf("replica %-3d %-10v attempts %d wall %v",
			r.ID, r.State, r.Attempts, r.Wall.Round(time.Microsecond))
		if r.Summary != nil && (r.State == fleet.Succeeded || r.State == fleet.Recovered) {
			line += fmt.Sprintf("  E %.6f -> %.6f  T %.4f",
				r.Summary.InitialEnergy, r.Summary.FinalEnergy, r.Summary.MeanTemperature)
		}
		if r.Err != nil {
			line += fmt.Sprintf("  (%v)", r.Err)
		}
		fmt.Println(line)
		if r.Report != nil && r.Report.Counts.Total() > 0 {
			fmt.Printf("  incidents: %v\n", &r.Report.Counts)
		}
	}
	fmt.Println(rep)

	if rep.Succeeded+rep.Recovered == 0 {
		return fmt.Errorf("batch: no replica finished (%d shed, %d failed)", rep.Shed, rep.Failed)
	}
	return nil
}
