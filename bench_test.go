package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/fsys"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
	"repro/internal/mta"
	"repro/internal/opteron"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/spu"
	"repro/internal/vec"
)

// The benchmarks in this file form the harness for the paper's
// evaluation section: one benchmark per table and figure, each
// reporting the modeled device runtimes as custom metrics
// (model_sec/<row>), plus micro-benchmarks of the substrates. The
// b.N-timed quantity is the cost of running the functional simulation;
// the paper's numbers are the reported metrics. cmd/paperbench prints
// the same rows as tables at full paper scale.

// benchAtoms keeps benchmark workloads small enough that -bench=. over
// the whole suite stays in minutes; the full-scale (2048-atom) rows are
// produced by cmd/paperbench and recorded in EXPERIMENTS.md.
const benchAtoms = 512

// BenchmarkFig5SIMDLadder regenerates Figure 5: the acceleration-kernel
// runtime for each SIMD-optimization rung on one SPE.
func BenchmarkFig5SIMDLadder(b *testing.B) {
	for v := cell.Variant(0); v < cell.NumVariants; v++ {
		b.Run(v.String(), func(b *testing.B) {
			w, err := core.StandardWorkload(benchAtoms, 1)
			if err != nil {
				b.Fatal(err)
			}
			proc, err := cell.New(cell.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			for i := 0; i < b.N; i++ {
				sec, err = proc.AccelKernelTime(w, v)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sec, "model_sec")
		})
	}
}

// BenchmarkFig6LaunchOverhead regenerates Figure 6: total runtime and
// SPE-launch overhead for {1,8} SPEs x {respawn, launch-once}.
func BenchmarkFig6LaunchOverhead(b *testing.B) {
	for _, mode := range []cell.Mode{cell.RespawnEachStep, cell.LaunchOnce} {
		for _, nspe := range []int{1, 8} {
			b.Run(fmt.Sprintf("%dspe_%v", nspe, mode), func(b *testing.B) {
				w, err := core.StandardWorkload(benchAtoms, core.PaperSteps)
				if err != nil {
					b.Fatal(err)
				}
				dev, err := core.NewCell(nspe, mode)
				if err != nil {
					b.Fatal(err)
				}
				var total, spawn float64
				for i := 0; i < b.N; i++ {
					res, err := dev.Run(w)
					if err != nil {
						b.Fatal(err)
					}
					total = res.Seconds()
					spawn = res.Time.Component("spawn")
				}
				b.ReportMetric(total, "model_sec")
				b.ReportMetric(spawn, "model_spawn_sec")
			})
		}
	}
}

// BenchmarkTable1Devices regenerates Table 1: the device comparison for
// the fixed-size experiment.
func BenchmarkTable1Devices(b *testing.B) {
	cases := []struct {
		name string
		run  func(b *testing.B, w device.Workload) float64
	}{
		{"opteron", func(b *testing.B, w device.Workload) float64 {
			res, err := core.NewOpteron().Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res.Seconds()
		}},
		{"cell_1spe", func(b *testing.B, w device.Workload) float64 {
			dev, err := core.NewCell(1, cell.LaunchOnce)
			if err != nil {
				b.Fatal(err)
			}
			res, err := dev.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res.Seconds()
		}},
		{"cell_8spe", func(b *testing.B, w device.Workload) float64 {
			dev, err := core.NewCell(8, cell.LaunchOnce)
			if err != nil {
				b.Fatal(err)
			}
			res, err := dev.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res.Seconds()
		}},
		{"cell_ppe_only", func(b *testing.B, w device.Workload) float64 {
			dev, err := core.NewCellPPEOnly()
			if err != nil {
				b.Fatal(err)
			}
			res, err := dev.Run(w)
			if err != nil {
				b.Fatal(err)
			}
			return res.Seconds()
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			w, err := core.StandardWorkload(benchAtoms, core.PaperSteps)
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			for i := 0; i < b.N; i++ {
				sec = c.run(b, w)
			}
			b.ReportMetric(sec, "model_sec")
		})
	}
}

// BenchmarkFig7GPUvsOpteron regenerates Figure 7's series: both devices
// across the atom sweep.
func BenchmarkFig7GPUvsOpteron(b *testing.B) {
	for _, n := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var rows []core.Fig7Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = core.Fig7([]int{n}, core.PaperSteps)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].Opteron, "model_opteron_sec")
			b.ReportMetric(rows[0].GPU, "model_gpu_sec")
		})
	}
}

// BenchmarkFig8MTAThreading regenerates Figure 8's series.
func BenchmarkFig8MTAThreading(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var rows []core.Fig8Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = core.Fig8([]int{n}, core.PaperSteps)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].Fully, "model_fully_sec")
			b.ReportMetric(rows[0].Partially, "model_partially_sec")
		})
	}
}

// BenchmarkFig9Scaling regenerates Figure 9's normalized growth points.
func BenchmarkFig9Scaling(b *testing.B) {
	b.Run("sweep", func(b *testing.B) {
		var rows []core.Fig9Row
		var err error
		for i := 0; i < b.N; i++ {
			rows, err = core.Fig9([]int{256, 1024, 4096}, 2)
			if err != nil {
				b.Fatal(err)
			}
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.MTARel, "model_mta_rel")
		b.ReportMetric(last.OpteronRel, "model_opteron_rel")
	})
}

// ---- Ablation benches for the design choices DESIGN.md calls out ----

// BenchmarkAblationPairlist compares the paper's on-the-fly kernel with
// the neighbor-list optimization it deliberately skips, on the Opteron
// model.
func BenchmarkAblationPairlist(b *testing.B) {
	for _, usePairlist := range []bool{false, true} {
		name := "on_the_fly"
		if usePairlist {
			name = "pairlist"
		}
		b.Run(name, func(b *testing.B) {
			w, err := core.StandardWorkload(benchAtoms, core.PaperSteps)
			if err != nil {
				b.Fatal(err)
			}
			cfg := opteron.DefaultConfig()
			cfg.UsePairlist = usePairlist
			dev := opteron.New(cfg)
			var sec float64
			for i := 0; i < b.N; i++ {
				res, err := dev.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				sec = res.Seconds()
			}
			b.ReportMetric(sec, "model_sec")
		})
	}
}

// BenchmarkAblationSPECount sweeps 1..8 SPEs (the paper reports only 1
// and 8).
func BenchmarkAblationSPECount(b *testing.B) {
	for nspe := 1; nspe <= 8; nspe++ {
		b.Run(fmt.Sprintf("%dspe", nspe), func(b *testing.B) {
			w, err := core.StandardWorkload(benchAtoms, core.PaperSteps)
			if err != nil {
				b.Fatal(err)
			}
			dev, err := core.NewCell(nspe, cell.LaunchOnce)
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			for i := 0; i < b.N; i++ {
				res, err := dev.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				sec = res.Seconds()
			}
			b.ReportMetric(sec, "model_sec")
		})
	}
}

// BenchmarkAblationMTAStreams sweeps the stream count to show the
// saturation point of the latency-hiding model.
func BenchmarkAblationMTAStreams(b *testing.B) {
	for _, streams := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("%dstreams", streams), func(b *testing.B) {
			w, err := core.StandardWorkload(benchAtoms, 2)
			if err != nil {
				b.Fatal(err)
			}
			cfg := mta.DefaultConfig()
			cfg.Streams = streams
			dev, err := mta.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			for i := 0; i < b.N; i++ {
				res, err := dev.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				sec = res.Seconds()
			}
			b.ReportMetric(sec, "model_sec")
		})
	}
}

// ---- Host parallel baseline (real wall-clock numbers) ----

// parallelBenchWorkers enumerates the worker sweep: every count up to
// NumCPU on small hosts, powers of two plus NumCPU on large ones.
func parallelBenchWorkers() []int {
	ncpu := runtime.NumCPU()
	if ncpu <= 8 {
		ws := make([]int, ncpu)
		for i := range ws {
			ws[i] = i + 1
		}
		return ws
	}
	ws := []int{1}
	for w := 2; w < ncpu; w *= 2 {
		ws = append(ws, w)
	}
	return append(ws, ncpu)
}

// BenchmarkParallelForces sweeps the sharded host force engine across
// worker counts and atom counts, reporting the wall-clock speedup over
// the serial full-loop kernel as a metric, next to that serial
// baseline itself (serial_ns/op).
func BenchmarkParallelForces(b *testing.B) {
	// serialNs lazily measures the serial full-loop kernel once per
	// atom count — the denominator of every speedup metric.
	serialNs := map[int]float64{}
	serialBaseline := func(b *testing.B, p md.Params[float64], pos, acc md.Coords[float64]) float64 {
		n := pos.Len()
		if ns, ok := serialNs[n]; ok {
			return ns
		}
		reps := 0
		start := time.Now()
		for time.Since(start) < 100*time.Millisecond || reps < 2 {
			md.ComputeForcesFull(p, pos, acc)
			reps++
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(reps)
		serialNs[n] = ns
		return ns
	}

	for _, n := range []int{256, 2048, 8192} {
		st, err := lattice.Generate(lattice.Config{
			N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		p := md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004}
		pos := md.CoordsFromV3(st.Pos)
		acc := md.MakeCoords[float64](n)
		for _, w := range parallelBenchWorkers() {
			b.Run(fmt.Sprintf("direct/n%d_w%d", n, w), func(b *testing.B) {
				sNs := serialBaseline(b, p, pos, acc)
				e := parallel.New[float64](w)
				defer e.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.ForcesDirect(p, pos, acc); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				speedup := sNs / perOp
				b.ReportMetric(speedup, "speedup_vs_serial")
				b.ReportMetric(sNs, "serial_ns/op")
			})
		}
	}

	// One pairlist point at full parallelism: the scalable method the
	// direct kernel is compared against.
	const n = 2048
	st, err := lattice.Generate(lattice.Config{
		N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004}
	pos := md.CoordsFromV3(st.Pos)
	acc := md.MakeCoords[float64](n)
	ncpu := runtime.NumCPU()
	b.Run(fmt.Sprintf("pairlist/n%d_w%d", n, ncpu), func(b *testing.B) {
		nl, err := md.NewNeighborList[float64](0.4)
		if err != nil {
			b.Fatal(err)
		}
		e := parallel.New[float64](ncpu)
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ForcesPairlist(nl, p, pos, acc); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
}

// buildBenchWorkers enumerates the worker sweep for the neighbor-list
// build bench. Unlike parallelBenchWorkers it always includes 4: the
// 4-worker point is measured at every atom count, and on hosts with
// fewer cores it shows how the sharded build degrades (or holds,
// thanks to the cell-binned algorithm) when oversubscribed.
func buildBenchWorkers() []int {
	ws := []int{1, 2, 4}
	if ncpu := runtime.NumCPU(); ncpu > 4 {
		ws = append(ws, ncpu)
	}
	return ws
}

// BenchmarkNeighborBuild sweeps the neighbor-list build itself across
// geometries and strategies: the reference O(N²) scan, the serial
// cell-binned build, and the sharded parallel build at the worker
// sweep. Every strategy produces byte-identical pair lists (pinned by
// the md and parallel package tests), so the only thing that varies
// here is wall-clock. Each arm reports ns/atom (one build's time per
// atom, the unit of perfbench's md.build_ns_per_atom) and the speedup
// over the serial N² scan, next to that scan's own time
// (serial_ns/op). The skin-0.4 arms are md-steady's density and skin
// at three sizes; the rebuild arm is md-rebuild's geometry (N=4000,
// skin 0.2) on its FCC start, and the melted arm is md-rebuild's own
// run (T=2, Berendsen) after meltSteps steps, whose liquid fills the
// cells less evenly than the lattice does.
func BenchmarkNeighborBuild(b *testing.B) {
	newList := func(b *testing.B, skin float64) *md.NeighborList[float64] {
		nl, err := md.NewNeighborList[float64](skin)
		if err != nil {
			b.Fatal(err)
		}
		return nl
	}

	// serialNs lazily measures the reference O(N²) build once per
	// geometry — the denominator of every speedup metric.
	serialNs := map[string]float64{}
	serialBaseline := func(b *testing.B, key string, skin float64, p md.Params[float64], pos md.Coords[float64]) float64 {
		if ns, ok := serialNs[key]; ok {
			return ns
		}
		nl := newList(b, skin)
		reps := 0
		start := time.Now()
		for time.Since(start) < 200*time.Millisecond || reps < 2 {
			nl.BuildN2(p, pos)
			reps++
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(reps)
		serialNs[key] = ns
		return ns
	}
	report := func(b *testing.B, n int, sNs float64) {
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perOp/float64(n), "ns/atom")
		b.ReportMetric(sNs/perOp, "build_speedup_vs_serial")
		b.ReportMetric(sNs, "serial_ns/op")
	}

	const meltSteps = 300
	for _, g := range []struct {
		name   string
		n      int
		skin   float64
		melted bool
	}{
		{"n512", 512, 0.4, false},
		{"n2048", 2048, 0.4, false},
		{"n8192", 8192, 0.4, false},
		{"rebuild_n4000", 4000, 0.2, false},
		{"melted_n4000", 4000, 0.2, true},
	} {
		// geometry builds the arm's positions on first use, so a run
		// that filters the melted arm out never pays for its steps.
		var p md.Params[float64]
		var pos md.Coords[float64]
		geometry := func(b *testing.B) {
			if pos.Len() > 0 {
				return
			}
			if g.melted {
				r, err := mdrun.New(mdrun.Config{
					Atoms: g.n, Density: 0.8442, Temperature: 2.0, Lattice: lattice.FCC, Seed: 7,
					Cutoff: 2.5, Dt: 0.004, Shifted: true,
					Method: mdrun.Pairlist, PairlistSkin: g.skin, Thermostat: mdrun.Berendsen,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close()
				if _, err := r.Run(meltSteps); err != nil {
					b.Fatal(err)
				}
				sys := r.System()
				p, pos = md.Params[float64]{Box: sys.P.Box, Cutoff: 2.5, Dt: 0.004}, sys.Pos
				return
			}
			st, err := lattice.Generate(lattice.Config{
				N: g.n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			p, pos = md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004}, md.CoordsFromV3(st.Pos)
		}

		b.Run("cell/"+g.name, func(b *testing.B) {
			geometry(b)
			sNs := serialBaseline(b, g.name, g.skin, p, pos)
			nl := newList(b, g.skin)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nl.Build(p, pos)
			}
			b.StopTimer()
			report(b, g.n, sNs)
		})
		for _, w := range buildBenchWorkers() {
			b.Run(fmt.Sprintf("parallel/%s_w%d", g.name, w), func(b *testing.B) {
				geometry(b)
				sNs := serialBaseline(b, g.name, g.skin, p, pos)
				nl := newList(b, g.skin)
				e := parallel.New[float64](w)
				defer e.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.BuildPairlist(nl, p, pos); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				report(b, g.n, sNs)
			})
		}
	}
}

// BenchmarkGuardRecovery measures the resilient run supervisor
// (internal/guard): a clean guarded run as the baseline, then a run
// that takes an injected worker panic and recovers via checkpoint
// rollback. Reported metrics are the incident/rollback counts and the
// wall-clock overhead of recovery relative to the clean run.
func BenchmarkGuardRecovery(b *testing.B) {
	base := mdrun.Config{
		Atoms: 108, Density: 0.8442, Temperature: 0.728,
		Lattice: lattice.FCC, Seed: 7,
		Cutoff: 2.5, Dt: 0.004, Shifted: true,
		Method: mdrun.Direct, Workers: 2,
	}
	const steps = 30
	guardedRun := func(b *testing.B, inj faults.Injector) *guard.RunReport {
		cfg := base
		cfg.Faults = inj
		sup, err := guard.New(guard.Config{Run: cfg, CheckEvery: 5, CheckpointEvery: 10})
		if err != nil {
			b.Fatal(err)
		}
		defer sup.Close()
		_, rep, err := sup.Run(steps)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}

	// Clean baseline: supervision with nothing to survive.
	cleanNs := 0.0
	b.Run("clean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := guardedRun(b, nil)
			if rep.Counts.Total() != 0 {
				b.Fatalf("clean run logged incidents: %v", rep)
			}
		}
		cleanNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	// Faulted run: one worker panic per iteration (fresh registry each
	// time so the fault re-fires), recovered by rollback + retry.
	b.Run("worker_panic_recovery", func(b *testing.B) {
		var rep *guard.RunReport
		for i := 0; i < b.N; i++ {
			inj := faults.NewRegistry(uint64(i) + 1).Arm(faults.Fault{
				Site: faults.SiteWorker, Kind: faults.Panic,
				Trigger: faults.Trigger{AtCall: 12},
			})
			rep = guardedRun(b, inj)
			if rep.Rollbacks == 0 {
				b.Fatal("fault never triggered a rollback")
			}
		}
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(rep.Counts.Total()), "incidents")
		b.ReportMetric(float64(rep.Rollbacks), "rollbacks")
		if cleanNs > 0 {
			b.ReportMetric(perOp/cleanNs, "recovery_overhead_x")
		}
	})
}

// BenchmarkBatchThroughput measures the fleet scheduler end to end:
// how many supervised replicas per second a full batch sustains, and
// the shed rate once the offered load exceeds the admission queue.
func BenchmarkBatchThroughput(b *testing.B) {
	replicas := func(n int) []fleet.Replica {
		reps := make([]fleet.Replica, n)
		for i := range reps {
			cfg := mdrun.Config{
				Atoms: 108, Density: 0.8442, Temperature: 0.728,
				Lattice: lattice.FCC, Seed: uint64(100 + i),
				Cutoff: 2.2, Dt: 0.004, Shifted: true,
				Method: mdrun.Direct, Workers: 1,
			}
			reps[i] = fleet.Replica{
				ID:    i,
				Guard: guard.Config{Run: cfg, CheckEvery: 5},
				Steps: 10,
			}
		}
		return reps
	}

	// Full batch within capacity: every replica admitted and completed.
	b.Run("admitted", func(b *testing.B) {
		const n = 8
		var rep *fleet.BatchReport
		for i := 0; i < b.N; i++ {
			rep = fleet.RunBatch(context.Background(), fleet.Config{
				MaxInflight: runtime.NumCPU(), QueueDepth: n,
			}, replicas(n))
			if rep.Succeeded != n {
				b.Fatalf("batch lost replicas: %v", rep)
			}
		}
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		rps := float64(n) / (perOp / 1e9)
		b.ReportMetric(rps, "replicas_per_sec")
	})

	// Overload: offered load far beyond the queue, so the scheduler must
	// shed rather than block. The metric is the steady-state shed rate.
	b.Run("overloaded", func(b *testing.B) {
		const n = 16
		var rep *fleet.BatchReport
		for i := 0; i < b.N; i++ {
			rep = fleet.RunBatch(context.Background(), fleet.Config{
				MaxInflight: 1, QueueDepth: 1,
			}, replicas(n))
			if rep.Shed == 0 {
				b.Fatal("overload never shed")
			}
		}
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		done := rep.Succeeded + rep.Recovered
		rps := float64(done) / (perOp / 1e9)
		shedRate := float64(rep.Shed) / float64(rep.Total)
		b.ReportMetric(rps, "replicas_per_sec")
		b.ReportMetric(shedRate, "shed_rate")
	})
}

// BenchmarkServeThroughput measures the mdserve serving layer end to
// end through its HTTP handler: jobs per second for a fully admitted
// batch, and the flood-isolation arms the tenancy pin rests on — a
// quiet tenant's admission latency (p50/p99 of POST /v1/jobs) measured
// alone and again with a neighbor tenant flooding at 10x its quota,
// plus the flooder's 429 rate.
func BenchmarkServeThroughput(b *testing.B) {
	newServer := func(b *testing.B, tp serve.TenantPolicy) (*serve.Server, http.Handler) {
		srv, err := serve.NewServer(serve.Config{
			DataDir: b.TempDir(),
			Fleet: fleet.Config{
				MaxInflight: runtime.NumCPU(), QueueDepth: 64,
				WorkerBudget: runtime.NumCPU(),
			},
			Tenancy: tp,
		})
		if err != nil {
			b.Fatal(err)
		}
		return srv, srv.Handler()
	}
	drain := func(b *testing.B, srv *serve.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	}

	// A small standard job: big enough to exercise the full admit ->
	// run -> checkpoint -> report path, small enough that throughput
	// measures the serving layer rather than the MD kernel.
	spec := []byte(`{"atoms": 108, "steps": 10, "thermostat": "rescale", "checkpoint_every": 50}`)
	post := func(h http.Handler, tenant string) (int, string, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec))
		req.Header.Set("X-Tenant", tenant)
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		elapsed := time.Since(start)
		var resp struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &resp)
		return w.Code, resp.ID, elapsed
	}
	await := func(b *testing.B, h http.Handler, id string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/report", nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code == http.StatusOK {
				return
			}
			if time.Now().After(deadline) {
				b.Fatalf("job %s never reached a terminal report", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Fully admitted batch: n jobs from one tenant with quota headroom,
	// submitted and awaited through the handler.
	b.Run("admitted", func(b *testing.B) {
		const n = 8
		srv, h := newServer(b, serve.TenantPolicy{Rate: 1e6, Burst: 1e6, MaxActive: n})
		defer drain(b, srv)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids := make([]string, 0, n)
			for j := 0; j < n; j++ {
				code, id, _ := post(h, "bench")
				if code != http.StatusAccepted {
					b.Fatalf("submit %d: HTTP %d", j, code)
				}
				ids = append(ids, id)
			}
			for _, id := range ids {
				await(b, h, id)
			}
		}
		b.StopTimer()
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		jps := float64(n) / (perOp / 1e9)
		b.ReportMetric(jps, "jobs_per_sec")
	})

	// quantileMs picks the q-th latency from a sample, in milliseconds.
	quantileMs := func(lats []time.Duration, q float64) float64 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return float64(lats[int(q*float64(len(lats)-1))].Nanoseconds()) / 1e6
	}

	// floodArm measures the quiet tenant's admission latencies over a
	// paced submission train, optionally with a flooding neighbor
	// offering 10x the 200/s quota; it returns the quiet latencies and
	// the flooder's rejection rate.
	floodArm := func(b *testing.B, flood bool) ([]time.Duration, float64) {
		srv, h := newServer(b, serve.TenantPolicy{Rate: 200, Burst: 20, MaxActive: 16})
		defer drain(b, srv)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var floodTotal, floodRejected int
		if flood {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					code, _, _ := post(h, "flooder")
					floodTotal++
					if code == http.StatusTooManyRequests {
						floodRejected++
					}
					time.Sleep(500 * time.Microsecond) // ~2000/s offered = 10x quota
				}
			}()
		}
		var lats []time.Duration
		for j := 0; j < 40; j++ {
			code, _, d := post(h, "quiet")
			if code != http.StatusAccepted {
				b.Fatalf("quiet submit %d: HTTP %d", j, code)
			}
			lats = append(lats, d)
			time.Sleep(10 * time.Millisecond) // 100/s, half the quota rate
		}
		close(stop)
		wg.Wait()
		rejectRate := 0.0
		if floodTotal > 0 {
			rejectRate = float64(floodRejected) / float64(floodTotal)
		}
		return lats, rejectRate
	}

	// Flood isolation: the quiet tenant's p50/p99 admission latency must
	// not move when the neighbor floods — the serve tests pin the hard
	// guarantees (no quiet 429s); this records the latency evidence.
	b.Run("flood_isolation", func(b *testing.B) {
		var aloneP50, aloneP99, floodP50, floodP99, rejectRate float64
		for i := 0; i < b.N; i++ {
			alone, _ := floodArm(b, false)
			flooded, rr := floodArm(b, true)
			aloneP50, aloneP99 = quantileMs(alone, 0.5), quantileMs(alone, 0.99)
			floodP50, floodP99 = quantileMs(flooded, 0.5), quantileMs(flooded, 0.99)
			rejectRate = rr
		}
		b.ReportMetric(aloneP50, "quiet_alone_p50_ms")
		b.ReportMetric(aloneP99, "quiet_alone_p99_ms")
		b.ReportMetric(floodP50, "quiet_flooded_p50_ms")
		b.ReportMetric(floodP99, "quiet_flooded_p99_ms")
		b.ReportMetric(rejectRate, "flood_reject_rate")
	})
}

// ---- Substrate micro-benchmarks (real wall-clock numbers) ----

// BenchmarkForceKernelReference measures the functional cost of the
// reference double-precision force evaluation.
func BenchmarkForceKernelReference(b *testing.B) {
	st, err := lattice.Generate(lattice.Config{
		N: benchAtoms, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004}
	sys, err := md.NewSystem(st, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md.ComputeForces(sys.P, sys.Pos, sys.Acc)
	}
}

// BenchmarkForceKernelFloat32 measures the single-precision variant.
func BenchmarkForceKernelFloat32(b *testing.B) {
	st, err := lattice.Generate(lattice.Config{
		N: benchAtoms, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := md.Params[float32]{Box: float32(st.Box), Cutoff: 2.5, Dt: 0.004}
	sys, err := md.NewSystem(st, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md.ComputeForces(sys.P, sys.Pos, sys.Acc)
	}
}

// BenchmarkSPEKernelEmulation measures the emulated SPE kernel (the
// per-operation-accounted path behind Figures 5/6).
func BenchmarkSPEKernelEmulation(b *testing.B) {
	w, err := core.StandardWorkload(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	proc, err := cell.New(cell.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.AccelKernelTime(w, cell.SIMDAccel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSimulator measures the set-associative cache model.
func BenchmarkCacheSimulator(b *testing.B) {
	c, err := cache.New(cache.Config{SizeBytes: 64 * 1024, LineBytes: 64, Ways: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*24) % (512 * 1024))
	}
}

// BenchmarkSIMDEmulation measures the 4-lane vector ops of the SPE
// model.
func BenchmarkSIMDEmulation(b *testing.B) {
	var ctx spu.Context
	x := spu.V4{1, 2, 3, 4}
	y := spu.V4{5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = ctx.VMadd(x, y, x)
	}
	_ = x
}

// BenchmarkMinImage measures the three minimum-image formulations.
func BenchmarkMinImage(b *testing.B) {
	d := vec.V3[float64]{X: 6.1, Y: -5.9, Z: 0.3}
	const box = 10.0
	b.Run("branch", func(b *testing.B) {
		var sink vec.V3[float64]
		for i := 0; i < b.N; i++ {
			sink = md.MinImage(d, box)
		}
		_ = sink
	})
	b.Run("copysign", func(b *testing.B) {
		var sink vec.V3[float64]
		for i := 0; i < b.N; i++ {
			sink = md.MinImageCopysign(d, box)
		}
		_ = sink
	})
	b.Run("cells27", func(b *testing.B) {
		var sink vec.V3[float64]
		for i := 0; i < b.N; i++ {
			sink = md.MinImage27(d, box)
		}
		_ = sink
	})
}

// ---- Extension benches: related work and future work ----

// BenchmarkExtXMTProjection reports the future-work XMT speedup for
// one processor at varying locality.
func BenchmarkExtXMTProjection(b *testing.B) {
	for _, locality := range []float64{1.0, 0.5, 0.0} {
		b.Run(fmt.Sprintf("locality%.0f", locality*100), func(b *testing.B) {
			var s float64
			var err error
			for i := 0; i < b.N; i++ {
				s, err = mta.XMTProjection(0.12, 1, locality)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(s, "model_speedup")
		})
	}
}

// BenchmarkAblationPrecisionDrift quantifies the float32-vs-float64
// energy divergence the paper flags as the Cell/GPU "outstanding
// issue": the reported metric is the relative PE difference after the
// run.
func BenchmarkAblationPrecisionDrift(b *testing.B) {
	for _, steps := range []int{10, 100} {
		b.Run(fmt.Sprintf("steps%d", steps), func(b *testing.B) {
			st, err := lattice.Generate(lattice.Config{
				N: 256, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 17,
			})
			if err != nil {
				b.Fatal(err)
			}
			var drift float64
			for i := 0; i < b.N; i++ {
				s64, err := md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004})
				if err != nil {
					b.Fatal(err)
				}
				s32, err := md.NewSystem(st, md.Params[float32]{Box: float32(st.Box), Cutoff: 2.5, Dt: 0.004})
				if err != nil {
					b.Fatal(err)
				}
				s64.Run(steps)
				s32.Run(steps)
				drift = math.Abs(float64(s32.PE)-s64.PE) / math.Abs(s64.PE)
			}
			b.ReportMetric(drift, "rel_pe_drift")
		})
	}
}

// BenchmarkAblationProgrammingModel contrasts the paper's asynchronous
// task-parallel model with the OpenMP-like data-parallel model that
// the related work (Williams et al.) evaluates exclusively.
func BenchmarkAblationProgrammingModel(b *testing.B) {
	for _, model := range []cell.Model{cell.TaskParallel, cell.DataParallel} {
		b.Run(model.String(), func(b *testing.B) {
			w, err := core.StandardWorkload(benchAtoms, core.PaperSteps)
			if err != nil {
				b.Fatal(err)
			}
			cfg := cell.DefaultConfig()
			cfg.Model = model
			dev, err := cell.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			for i := 0; i < b.N; i++ {
				res, err := dev.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				sec = res.Seconds()
			}
			b.ReportMetric(sec, "model_sec")
		})
	}
}

// BenchmarkAblationBranchHints asks the what-if of Figure 5's first
// rung: how much of the Original kernel's cost is the SPE's missing
// branch prediction? Halving the taken-branch penalty (as compiler
// branch hints achieve on hot loops) closes part of the gap to the
// copysign variant.
func BenchmarkAblationBranchHints(b *testing.B) {
	w, err := core.StandardWorkload(benchAtoms, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, hinted := range []bool{false, true} {
		name := "no_hints"
		cfg := cell.DefaultConfig()
		if hinted {
			name = "hinted"
			cfg.SPECosts[sim.OpBranchMiss] = 9 // hint resolves half the flush
		}
		b.Run(name, func(b *testing.B) {
			proc, err := cell.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var sec float64
			for i := 0; i < b.N; i++ {
				sec, err = proc.AccelKernelTime(w, cell.Original)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sec, "model_sec")
		})
	}
}

// BenchmarkChaosOverhead prices the chaos PR's filesystem seam on the
// serving hot path: the same admit -> run -> checkpoint -> report
// pipeline with the store going through plain os calls (FS unset)
// versus the fault-injection seam armed with an empty registry (every
// operation pays the indirection plus a per-site counter, no fault
// ever fires). The acceptance bound is <5% wall overhead — production
// binaries keep the seam disarmed, so this measures what shipping the
// testability hook costs when it is merely present.
func BenchmarkChaosOverhead(b *testing.B) {
	// Dense checkpoints so the measured pipeline is store-heavy: per
	// job one spec write, six checkpoint commits, one terminal record.
	spec := []byte(`{"atoms": 108, "steps": 12, "thermostat": "rescale", "checkpoint_every": 2, "keep_checkpoints": 3}`)
	const jobsPerRound = 4
	round := func(b *testing.B, fs fsys.FS) time.Duration {
		srv, err := serve.NewServer(serve.Config{
			DataDir: b.TempDir(),
			Fleet: fleet.Config{
				MaxInflight: 1, QueueDepth: jobsPerRound, WorkerBudget: 1,
			},
			Tenancy: serve.TenantPolicy{Rate: 1e6, Burst: 1e6, MaxActive: jobsPerRound},
			FS:      fs,
		})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		start := time.Now()
		for j := 0; j < jobsPerRound; j++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec))
			req.Header.Set("X-Tenant", "bench")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusAccepted {
				b.Fatalf("submit %d: HTTP %d", j, w.Code)
			}
			var resp struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(w.Body.Bytes(), &resp)
			deadline := time.Now().Add(30 * time.Second)
			for {
				rreq := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+resp.ID+"/report", nil)
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, rreq)
				if rw.Code == http.StatusOK {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("job %s never reached a terminal report", resp.ID)
				}
				time.Sleep(time.Millisecond)
			}
		}
		elapsed := time.Since(start)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			b.Fatal(err)
		}
		return elapsed
	}

	// One untimed round per arm first: page cache, code paths, and the
	// tmpfs allocator warm up outside the measurement.
	_ = round(b, nil)
	_ = round(b, fsys.Faulty(fsys.OS, faults.NewRegistry(1)))

	var direct, seam time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Interleave the arms so machine noise hits both equally.
		direct += round(b, nil)
		seam += round(b, fsys.Faulty(fsys.OS, faults.NewRegistry(1)))
	}
	b.StopTimer()
	dSec := direct.Seconds() / float64(b.N)
	sSec := seam.Seconds() / float64(b.N)
	overheadPct := (sSec/dSec - 1) * 100
	b.ReportMetric(dSec, "direct_sec")
	b.ReportMetric(sSec, "seam_sec")
	b.ReportMetric(overheadPct, "overhead_pct")
}

// BenchmarkStepAllocs pins the PR-10 arena contract: once a method's
// lazily sized scratch (neighbor rows, CSR bins) has been
// populated by warmup steps, steady-state stepping performs zero
// per-step heap allocation. Run with -benchmem; scripts/verify.sh
// fails the gate unless all three arms report 0 allocs/op. Each arm
// also reports its step time per atom (ns/atom).
func BenchmarkStepAllocs(b *testing.B) {
	const n = 2048
	newSys := func(b *testing.B) *md.System[float64] {
		st, err := lattice.Generate(lattice.Config{
			N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}

	pairlist := func(b *testing.B, s *md.System[float64]) func() {
		nl, err := md.NewNeighborList[float64](0.4)
		if err != nil {
			b.Fatal(err)
		}
		return func() {
			s.StepWith(func() float64 {
				if nl.Stale(s.P, s.Pos) {
					nl.Build(s.P, s.Pos)
				}
				return nl.Forces(s.P, s.Pos, s.Acc)
			})
		}
	}

	// arms maps a method name to a constructor returning the per-step
	// advance. Warmup runs before the timer so one-time sizing (first
	// list build, CSR grow) never lands in the window. The shifted arm
	// is the potential every perfbench workload runs.
	arms := []struct {
		name  string
		setup func(b *testing.B, s *md.System[float64]) func()
	}{
		{"direct_serial", func(b *testing.B, s *md.System[float64]) func() {
			return s.Step
		}},
		{"pairlist_serial", pairlist},
		{"pairlist_shifted_serial", func(b *testing.B, s *md.System[float64]) func() {
			s.P.Shifted = true
			return pairlist(b, s)
		}},
	}

	for _, arm := range arms {
		b.Run(fmt.Sprintf("%s_n%d", arm.name, n), func(b *testing.B) {
			s := newSys(b)
			step := arm.setup(b, s)
			for i := 0; i < 200; i++ { // warmup: size lists and let per-row
				step() // capacities converge across several rebuilds
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				step()
			}
			perAtom := float64(time.Since(start).Nanoseconds()) / float64(b.N) / float64(n)
			b.ReportMetric(perAtom, "ns/atom")
		})
	}
}
