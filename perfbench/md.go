package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/mdrun"
)

// mdWorkload is one MD workload: an mdrun configuration, seeded per
// run, and how it is measured.
type mdWorkload struct {
	name string
	cfg  mdrun.Config
	// segment is the number of steps in one timed RunContext call; each
	// call ends with mdrun's O(N²) pressure, so segments are long.
	segment int
	// trajectory writes an XYZ trajectory to a scratch file.
	trajectory bool
	// driftBudget bounds the relative total-energy drift of an NVE
	// workload over a run; 0 for thermostatted workloads.
	driftBudget float64
	// traceStepsPerSecond sizes each of the traced run's two passes
	// (mdrun itself, then the traced rebuild of its loop) from the run
	// length, so step counts are a pure function of -seconds and
	// deterministic counters repeat.
	traceStepsPerSecond int
}

// Both MD workloads use the shifted potential: with plain truncation,
// pairs crossing the cutoff while the FCC start melts shift the total
// energy by far more than the integrator's error, and the NVE drift
// check would measure the melt instead of the integrator.
var (
	mdSteady = mdWorkload{
		name: "md-steady",
		cfg: mdrun.Config{
			Atoms: 8192, Density: 0.8442, Temperature: 0.728, Lattice: lattice.FCC,
			Cutoff: 2.5, Dt: 0.004, Shifted: true,
			Method: mdrun.Pairlist, PairlistSkin: 0.4, Workers: 1,
		},
		segment:             200,
		driftBudget:         2e-4,
		traceStepsPerSecond: 25,
	}
	mdRebuild = mdWorkload{
		name: "md-rebuild",
		cfg: mdrun.Config{
			Atoms: 4000, Density: 0.8442, Temperature: 2.0, Lattice: lattice.FCC,
			Cutoff: 2.5, Dt: 0.004, Shifted: true,
			Method: mdrun.Pairlist, PairlistSkin: 0.2, Workers: 1,
			Thermostat: mdrun.Berendsen, SampleRDF: true,
		},
		segment:             50,
		trajectory:          true,
		traceStepsPerSecond: 20,
	}
)

// mdrun's defaults for the fields the workloads leave zero. The traced
// rebuild of mdrun's step loop uses them; the bitwise energy check
// against mdrun proves it uses them the same way.
const (
	sampleEvery     = 10 // observable sampling stride
	trajectoryEvery = 10 // XYZ frame stride
	rdfBins         = 50
	rescaleInterval = 10
	berendsenTau    = 25 // in units of Dt
)

const (
	minSegments = 3
	peTolerance = 1e-9 // pairlist PE vs the O(N²) reference, relative
	minCoverage = 0.95 // phase self times over the traced wall time
	xyzProbes   = 3    // frames a probe writes when the loop writes none
)

// config returns the workload's mdrun configuration for one seed.
func (w mdWorkload) config(seed uint64) mdrun.Config {
	c := w.cfg
	c.Seed = deriveSeed(seed, w.name)
	return c
}

func (w mdWorkload) traceSteps(seconds int) int {
	return max(20, w.traceStepsPerSecond*seconds)
}

// run is the untraced end-to-end run: set-up, then RunContext segments
// for the run length, then the output checks.
func (w mdWorkload) run(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	cfg := w.config(e.seed)
	if w.trajectory {
		f, err := os.CreateTemp(e.dir, "traj-*.xyz")
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cfg.Trajectory = f
	}
	clock := &hostClock{p: newProbe()}
	cfg.Faults = clock
	r, setup, err := newRunner(cfg, clock.p)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	e0 := r.System().TotalEnergy()

	// Set-up is timed twice more after every segment, on runners that
	// are thrown away, so the median samples the whole run rather than
	// its first second.
	setups := []time.Duration{setup}
	var segs, raw []time.Duration
	var busy, probed time.Duration
	var probes int
	for len(segs) < minSegments || busy < e.window() {
		t0 := time.Now()
		_, err := r.RunContext(ctx, w.segment)
		d := time.Since(t0)
		o.tally.check(err == nil, "segment %d: %v", len(segs)+1, err)
		if err != nil {
			break
		}
		spent, speed, runs := clock.take()
		segs = append(segs, scaled(d-spent, speed/time.Duration(runs)))
		raw = append(raw, d-spent)
		busy += d
		probed += speed
		probes += runs
		for range 2 {
			spare, setup, err := newRunner(cfg, clock.p)
			if err != nil {
				return nil, err
			}
			spare.Close()
			setups = append(setups, setup)
		}
	}
	w.checkFinal(o, r.System(), e0)
	heap := liveHeapMB()
	runtime.KeepAlive(r)

	ms := durations(segs, time.Millisecond)
	o.set("setup_s", median(durations(setups, time.Second)), "s")
	o.set("step_ns_per_atom", median(ms)*1e6/float64(w.segment*cfg.Atoms), "ns")
	o.set("heap_mb", heap, "MB")
	o.set("job_p50_ms", median(ms), "ms")
	o.set("job_p95_ms", robustP95(ms), "ms")
	o.set("jobs_per_s", 1000/median(ms), "1/s")
	o.note("a job here is one RunContext call of %d steps (%d of them); N=%d; setup_s is the median of %d mdrun.New calls",
		w.segment, len(segs), cfg.Atoms, len(setups))
	o.note("times are scaled to a %v probe; the probe averaged %v, and the unscaled job p50 was %.4gms",
		probeRef, probed/time.Duration(max(1, probes)), median(durations(raw, time.Millisecond)))
	return o, nil
}

// newRunner returns a runner for cfg and how long mdrun.New took,
// scaled by the probe runs on either side of the call.
func newRunner(cfg mdrun.Config, p *probe) (*mdrun.Runner, time.Duration, error) {
	before := p.median(setupProbes)
	t0 := time.Now()
	r, err := mdrun.New(cfg)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("mdrun.New: %w", err)
	}
	return r, scaled(d, (before+p.median(setupProbes))/2), nil
}

// checkFinal checks the final state: the pairlist energy against the
// O(N²) reference on the same positions, and for NVE workloads the
// energy drift since e0.
func (w mdWorkload) checkFinal(o *outcome, sys *md.System[float64], e0 float64) {
	ref := md.ComputeForces(sys.P, sys.Pos, md.MakeCoords[float64](sys.N()))
	rel := math.Abs(sys.PE-ref) / math.Abs(ref)
	o.tally.check(rel <= peTolerance, "pairlist PE %v vs ComputeForces %v: relative difference %.3g > %g", sys.PE, ref, rel, peTolerance)
	if w.driftBudget > 0 {
		drift := math.Abs(sys.TotalEnergy()-e0) / math.Abs(e0)
		o.tally.check(drift <= w.driftBudget, "NVE drift %.3g over budget %g", drift, w.driftBudget)
		o.note("NVE relative energy drift %.3g (budget %g)", drift, w.driftBudget)
	}
}

// traced is the traced run: mdrun runs the workload untraced, a traced
// rebuild of mdrun's step loop runs it again and must end on the same
// energy bit for bit, and the per-layer metrics come from the rebuild's
// spans. A short traced service pass measures the service layers,
// which this workload does not use.
func (w mdWorkload) traced(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	cfg := w.config(e.seed)
	steps := w.traceSteps(e.seconds)
	var refTraj, traj io.Writer
	if w.trajectory {
		f1, err := os.CreateTemp(e.dir, "traj-ref-*.xyz")
		if err != nil {
			return nil, err
		}
		defer f1.Close()
		f2, err := os.CreateTemp(e.dir, "traj-*.xyz")
		if err != nil {
			return nil, err
		}
		defer f2.Close()
		refTraj, traj = f1, f2
	}

	refCfg := cfg
	refCfg.Trajectory = refTraj
	r, err := mdrun.New(refCfg)
	if err != nil {
		return nil, fmt.Errorf("mdrun.New: %w", err)
	}
	t0 := time.Now()
	sum, err := r.RunContext(ctx, steps)
	untraced := time.Since(t0)
	r.Close()
	o.tally.check(err == nil, "untraced run: %v", err)
	if err != nil {
		return o, nil
	}

	rec := newRecorder()
	t, err := rebuildLoop(ctx, cfg, steps, traj, rec)
	if err != nil {
		return nil, err
	}
	o.tally.check(math.Float64bits(t.final) == math.Float64bits(sum.FinalEnergy),
		"traced rebuild final energy %v differs from mdrun's %v", t.final, sum.FinalEnergy)
	w.checkFinal(o, t.sys, t.e0)
	if err := t.probeIdleLayers(e.dir, rec); err != nil {
		return nil, err
	}
	t.report(o, rec.snapshot())
	o.set("trace.overhead_frac", (t.wall.Seconds()-untraced.Seconds())/untraced.Seconds(), "fraction")
	o.note("traced %d steps; untraced mdrun %.3fs, traced rebuild %.3fs", steps, untraced.Seconds(), t.wall.Seconds())

	if _, err := tracedPass(ctx, e, filepath.Join(e.dir, "service"), serviceProbeJobs, rec, o, oracles{}); err != nil {
		return nil, err
	}
	if e.spans != "" {
		if err := writeSpans(e.spans, rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// mdTrace is what one traced rebuild of mdrun's step loop measured.
type mdTrace struct {
	sys      *md.System[float64]
	e0       float64 // total energy after set-up
	final    float64 // total energy after the last step
	steps    int
	builds   int
	entries  int64 // list entries the force evaluations visited
	rowSlots int64 // row-arena slots the list holds after the run
	xyzBytes int64
	frames   int
	samples  int           // RDF samples
	thermos  int           // thermostat applications
	wall     time.Duration // the whole traced run, final pressure included
	stepWall time.Duration // the steps alone
}

// rebuildLoop runs mdrun's Pairlist step loop (mdrun.Runner.RunContext)
// from md's public API, with a span around every call into a layer:
// stale check, build and forces inside the StepWithE callback, the
// integrator as StepWithE's self time, then thermostat, MSD, RDF, XYZ
// output and the final pressure.
func rebuildLoop(ctx context.Context, cfg mdrun.Config, steps int, traj io.Writer, rec *recorder) (*mdTrace, error) {
	if cfg.Method != mdrun.Pairlist || cfg.Topology != nil {
		return nil, fmt.Errorf("traced loop supports the unbonded Pairlist method only")
	}
	setup := rec.begin("setup", noParent)
	sp := rec.begin("lattice", setup)
	st, err := lattice.Generate(lattice.Config{
		N: cfg.Atoms, Density: cfg.Density, Temperature: cfg.Temperature,
		Kind: cfg.Lattice, Seed: cfg.Seed,
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("new_system", setup)
	sys, err := md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: cfg.Cutoff, Dt: cfg.Dt, Shifted: cfg.Shifted})
	rec.end(sp)
	rec.end(setup)
	if err != nil {
		return nil, err
	}
	nl, err := md.NewNeighborList[float64](cfg.PairlistSkin)
	if err != nil {
		return nil, err
	}
	var therm md.Thermostat[float64]
	switch cfg.Thermostat {
	case mdrun.NVE:
	case mdrun.Rescale:
		therm, err = md.NewRescaleThermostat(cfg.Temperature, rescaleInterval)
	case mdrun.Berendsen:
		therm, err = md.NewBerendsenThermostat(cfg.Temperature, cfg.Dt, berendsenTau*cfg.Dt)
	default:
		err = fmt.Errorf("traced loop does not support thermostat %v", cfg.Thermostat)
	}
	if err != nil {
		return nil, err
	}
	var rdf *md.RDF
	if cfg.SampleRDF {
		if rdf, err = newRDF(sys); err != nil {
			return nil, err
		}
	}
	var xyz *md.XYZWriter
	var out *countingWriter
	if traj != nil {
		out = &countingWriter{w: traj}
		xyz = md.NewXYZWriter(out, "Ar")
	}
	msd := md.NewMSD(sys.P.Box, sys.Pos)

	t := &mdTrace{sys: sys, e0: sys.TotalEnergy(), steps: steps}
	var entries int64
	run := rec.begin("run", noParent)
	for s := 1; s <= steps; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step := rec.begin("step", run)
		integrate := rec.begin("integrate", step)
		err := sys.StepWithE(func() (float64, error) {
			sp := rec.begin("stale", integrate)
			stale := nl.Stale(sys.P, sys.Pos)
			rec.end(sp)
			if stale {
				sp = rec.begin("build", integrate)
				nl.Build(sys.P, sys.Pos)
				rec.end(sp)
				entries = int64(nl.PairCount())
			}
			sp = rec.begin("forces", integrate)
			pe := nl.Forces(sys.P, sys.Pos, sys.Acc)
			rec.end(sp)
			t.entries += entries
			return pe, nil
		})
		rec.end(integrate)
		if err != nil {
			return nil, err
		}
		if therm != nil {
			sp := rec.begin("thermostat", step)
			therm.Apply(sys.Vel, sys.Temperature())
			sys.KE = md.KineticEnergy(sys.Vel)
			rec.end(sp)
			t.thermos++
		}
		sp := rec.begin("msd", step)
		err = msd.Track(sys.Pos)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		if rdf != nil && s%sampleEvery == 0 {
			sp := rec.begin("rdf", step)
			rdf.Accumulate(sys.Pos)
			rec.end(sp)
			t.samples++
		}
		if xyz != nil && s%trajectoryEvery == 0 {
			sp := rec.begin("xyz", step)
			err := xyz.WriteFrame(fmt.Sprintf("step %d PE %.6f KE %.6f", sys.Steps, sys.PE, sys.KE), sys.Pos)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			t.frames++
		}
		rec.end(step)
	}
	if xyz != nil {
		sp := rec.begin("xyz", run)
		err := xyz.Flush()
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		t.xyzBytes = out.n
	}
	sp = rec.begin("pressure", run)
	md.Pressure(sys.P, sys.Pos, sys.Temperature())
	rec.end(sp)
	rec.end(run)

	t.final = sys.TotalEnergy()
	t.builds = nl.Builds()
	for i := 0; i < sys.N(); i++ {
		t.rowSlots += int64(cap(nl.Neighbors(i)))
	}
	spans := rec.snapshot()
	t.wall = spans[run].dur()
	for _, s := range spans[run:] {
		if s.Name == "step" && s.Parent == run {
			t.stepWall += s.dur()
		}
	}
	return t, nil
}

// newRDF builds the accumulator mdrun builds for SampleRDF.
func newRDF(sys *md.System[float64]) (*md.RDF, error) {
	rMax := sys.P.Cutoff
	if rMax > sys.P.Box/2 {
		rMax = sys.P.Box / 2 * 0.99
	}
	return md.NewRDF(sys.P.Box, rMax, rdfBins)
}

// probeIdleLayers times, on the final state, the output and thermostat
// layers the workload's loop never called, so every traced run reports
// every layer. Probe spans sit under a "probe" root, outside the run.
func (t *mdTrace) probeIdleLayers(dir string, rec *recorder) error {
	sys := t.sys
	probe := rec.begin("probe", noParent)
	defer rec.end(probe)
	if t.thermos == 0 {
		th, err := md.NewBerendsenThermostat(sys.Temperature(), sys.P.Dt, berendsenTau*sys.P.Dt)
		if err != nil {
			return err
		}
		vel := md.MakeCoords[float64](sys.N())
		vel.CopyFrom(sys.Vel)
		for ; t.thermos < 10; t.thermos++ {
			sp := rec.begin("thermostat", probe)
			th.Apply(vel, sys.Temperature())
			md.KineticEnergy(vel)
			rec.end(sp)
		}
	}
	if t.samples == 0 {
		rdf, err := newRDF(sys)
		if err != nil {
			return err
		}
		sp := rec.begin("rdf", probe)
		rdf.Accumulate(sys.Pos)
		rec.end(sp)
		t.samples++
	}
	if t.frames == 0 {
		f, err := os.CreateTemp(dir, "probe-*.xyz")
		if err != nil {
			return err
		}
		defer f.Close()
		out := &countingWriter{w: f}
		xyz := md.NewXYZWriter(out, "Ar")
		for ; t.frames < xyzProbes; t.frames++ {
			sp := rec.begin("xyz", probe)
			err := xyz.WriteFrame(fmt.Sprintf("step %d PE %.6f KE %.6f", sys.Steps, sys.PE, sys.KE), sys.Pos)
			rec.end(sp)
			if err != nil {
				return err
			}
		}
		sp := rec.begin("xyz", probe)
		err = xyz.Flush()
		rec.end(sp)
		if err != nil {
			return err
		}
		t.xyzBytes = out.n
	}
	return nil
}

// report sets the MD per-layer metrics from the recorded spans.
func (t *mdTrace) report(o *outcome, spans []span) {
	self := selfTimes(spans)
	n, steps := float64(t.sys.N()), float64(t.steps)
	perAtom := func(name string, calls int) float64 { return float64(self[name]) / (float64(calls) * n) }
	share := func(name string) float64 { return float64(self[name]) / float64(t.stepWall) }
	ms := func(name string, calls int) float64 {
		return float64(self[name]) / float64(time.Millisecond) / float64(calls)
	}

	o.set("lattice.generate_s", self["lattice"].Seconds(), "s")
	o.set("md.new_system_s", self["new_system"].Seconds(), "s")
	o.set("md.forces_ns_per_entry", float64(self["forces"])/float64(t.entries), "ns")
	o.set("md.forces_share", share("forces"), "fraction")
	o.set("md.entries_per_atom", float64(t.entries)/(steps*n), "count")
	o.set("md.forces_computed_bytes_per_step", computedForceBytes(float64(t.entries)/steps, n), "bytes")
	// Working set: the neighbor-row arena plus the position, velocity,
	// acceleration and build-reference planes.
	ws := float64(t.rowSlots)*4 + 12*8*n
	o.set("md.working_set_bytes", ws, "bytes")
	o.set("host.l2_bytes", float64(l2Bytes()), "bytes")
	o.set("md.build_ns_per_atom", perAtom("build", t.builds), "ns")
	o.set("md.build_share", share("build"), "fraction")
	o.set("md.builds", float64(t.builds), "count")
	o.set("md.stale_ns_per_atom", perAtom("stale", t.steps), "ns")
	o.set("md.integrate_ns_per_atom", perAtom("integrate", t.steps), "ns")
	o.set("md.thermostat_ns_per_atom", perAtom("thermostat", t.thermos), "ns")
	o.set("md.msd_ns_per_atom", perAtom("msd", t.steps), "ns")
	o.set("md.rdf_ms_per_sample", ms("rdf", t.samples), "ms")
	o.set("md.xyz_ms_per_frame", ms("xyz", t.frames), "ms")
	o.set("md.xyz_bytes", float64(t.xyzBytes), "bytes")
	o.set("md.pressure_s", self["pressure"].Seconds(), "s")
	// Whatever the phases do not cover is the loop's own time and the
	// recorder's overhead.
	coverage := 1 - float64(self["run"]+self["step"])/float64(t.wall)
	o.set("trace.self_coverage", coverage, "fraction")
	o.tally.check(coverage >= minCoverage, "phase self times cover %.3f of the traced wall time, want >= %g", coverage, minCoverage)
	o.note("working set %.0f B vs L2 %d B (%s)", ws, l2Bytes(), hostFacts())
}

// computedForceBytes is the memory traffic the pairlist force kernel
// implies, computed from its loop structure rather than measured: per
// list entry the int32 index, the neighbor's position and a
// read-modify-write of its acceleration; per atom its position, a
// read-modify-write of its own acceleration, its row header and the
// acceleration zeroing.
func computedForceBytes(entriesPerStep, n float64) float64 {
	const perEntry = 4 + 24 + 48
	const perAtom = 24 + 48 + 24 + 24
	return entriesPerStep*perEntry + n*perAtom
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
