package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/fsys"
	"repro/internal/guard"
	"repro/internal/mdrun"
	"repro/internal/serve"
)

const (
	// serveRate is the offered load in jobs/s, about a third of the
	// saturation throughput of this configuration (35 jobs/s measured
	// on a 2-CPU host with the offered load at 48 jobs/s). A job is
	// mostly CPU time, so in the host's slow spells saturation drops
	// toward 20 jobs/s; a third keeps the queue short even then.
	serveRate = 12
	// servePoll is the status poll period, and so the resolution of
	// every job latency and queue wait.
	servePoll = 2 * time.Millisecond
	// maxLag bounds the generator's p95 lateness as a share of the
	// send interval; beyond it the run is invalid, not slow.
	maxLag = 0.5
	// missed stands in for the latency of a job that was refused or
	// never finished: it misses every latency limit.
	missed       = 60 * time.Second
	serveSetups  = 31 // serve.NewServer calls whose median is setup_s
	speedSpan    = 2  // jobs on either side whose probes scale a job's latency
	standalones  = 5  // bare and guarded runs of one job spec, each
	probeSeconds = 2  // length of the service pass in MD workloads' traced runs
	minJobs      = 10 // fewest jobs one pass submits
)

// serviceProbeJobs is how many jobs the MD workloads' traced runs
// serve to measure the service layers they do not use themselves.
const serviceProbeJobs = int(serveRate * probeSeconds)

var tenants = [2]string{"tenant-a", "tenant-b"}

// jobSpec is the k-th job of a run: a small thermostatted pairlist run
// with checkpoints every 10 steps, seeded from the workload seed.
func jobSpec(seed uint64, k int) serve.Spec {
	return serve.Spec{
		Atoms: 256, Steps: 100, Method: "pairlist", Thermostat: "rescale",
		CheckpointEvery: 10, Seed: deriveSeed(seed, "job-"+strconv.Itoa(k)),
	}
}

// serverConfig keeps the load generator and the server within nproc
// busy threads: at most two replicas run at once, on one worker each.
// Quotas sit well above the offered load, so the workload measures the
// service path rather than its refusals.
func serverConfig(dir string, fs fsys.FS) serve.Config {
	slots := min(2, runtime.NumCPU())
	return serve.Config{
		DataDir: dir,
		Fleet:   fleet.Config{MaxInflight: slots, WorkerBudget: slots, QueueDepth: 64},
		Tenancy: serve.TenantPolicy{Rate: serveRate, Burst: 16, MaxActive: 64},
		FS:      fs,
	}
}

// jobRun is one submitted job as the load generator saw it.
type jobRun struct {
	spec     serve.Spec
	tenant   string
	due      time.Time // when the schedule said to send it
	sent     time.Time
	admitted time.Time // when the POST returned
	code     int
	id       string
	progress time.Time // first progress the poller saw
	terminal time.Time // first terminal status the poller saw
	status   string
	energy   float64
	probe    time.Duration // the host-speed probe run just after the POST
}

// latency is due → terminal, or missed for a job that never finished.
func (j *jobRun) latency() time.Duration {
	if j.status != serve.StatusDone {
		return missed
	}
	return j.terminal.Sub(j.due)
}

// passStats summarizes one open-loop pass.
type passStats struct {
	jobs, done      int
	admit, latency  []float64 // ms, every job
	scaled          []float64 // latency scaled to the reference host, ms
	queueWait, lags []float64 // ms
	jobsPerSec      float64
	probe           time.Duration // median probe time over the pass
}

func summarize(jobs []*jobRun) passStats {
	var ps passStats
	ps.jobs = len(jobs)
	probes := make([]float64, len(jobs))
	for k, j := range jobs {
		probes[k] = float64(j.probe)
	}
	ps.probe = time.Duration(median(probes))
	var last time.Time
	for k, j := range jobs {
		admit := j.admitted.Sub(j.due)
		if j.code != http.StatusAccepted {
			admit = missed
		}
		ps.admit = append(ps.admit, ms(admit))
		ps.latency = append(ps.latency, ms(j.latency()))
		// A job runs while its neighbours are sent, so their probes
		// tell the host's speed over its lifetime.
		near := probes[max(0, k-speedSpan):min(len(probes), k+speedSpan+1)]
		scaledLatency := j.latency()
		if j.status == serve.StatusDone {
			scaledLatency = scaled(scaledLatency, time.Duration(median(near)))
		}
		ps.scaled = append(ps.scaled, ms(scaledLatency))
		ps.lags = append(ps.lags, ms(j.sent.Sub(j.due)))
		if j.status == serve.StatusDone {
			ps.done++
			ps.queueWait = append(ps.queueWait, ms(j.progress.Sub(j.admitted)))
			if j.terminal.After(last) {
				last = j.terminal
			}
		}
	}
	if ps.done > 0 {
		ps.jobsPerSec = float64(ps.done) / last.Sub(jobs[0].due).Seconds()
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop submits n jobs on a fixed schedule, alternating tenants,
// from one pacing loop; one poller goroutine watches the outstanding
// jobs until each is terminal. A job is timed from when it was due, so
// a stall delays the jobs behind it too.
func openLoop(ctx context.Context, h http.Handler, seed uint64, n int) []*jobRun {
	interval := time.Second / serveRate
	jobs := make([]*jobRun, n)
	for k := range jobs {
		jobs[k] = &jobRun{spec: jobSpec(seed, k), tenant: tenants[k%2]}
	}
	p := &poller{h: h}
	pr := newProbe()
	pollCtx, cancel := context.WithTimeout(ctx, time.Duration(n)*interval+missed)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.run(pollCtx)
	}()
	t0 := time.Now().Add(interval)
	for k, j := range jobs {
		j.due = t0.Add(time.Duration(k) * interval)
		if err := sleepUntil(ctx, j.due); err != nil {
			break
		}
		j.sent = time.Now()
		j.code, j.id = submit(h, j)
		j.admitted = time.Now()
		// The generator has slept since the last send, so the first
		// probe run is cold; the second is the sample.
		pr.run()
		j.probe = pr.run()
		if j.code == http.StatusAccepted {
			p.add(j)
		}
	}
	p.finish()
	wg.Wait()
	return jobs
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// submit POSTs the job's spec and returns the status code and job ID.
func submit(h http.Handler, j *jobRun) (int, string) {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return 0, ""
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", j.tenant)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var resp struct {
		ID string `json:"id"`
	}
	if rr.Code == http.StatusAccepted && json.Unmarshal(rr.Body.Bytes(), &resp) != nil {
		return 0, ""
	}
	return rr.Code, resp.ID
}

// get GETs path and decodes the JSON body into v.
func get(h http.Handler, path string, v any) error {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rr.Code)
	}
	return json.Unmarshal(rr.Body.Bytes(), v)
}

// poller watches outstanding jobs through the status endpoint.
type poller struct {
	h        http.Handler
	mu       sync.Mutex
	open     []*jobRun
	finished bool // no more jobs will be added
}

func (p *poller) add(j *jobRun) {
	p.mu.Lock()
	p.open = append(p.open, j)
	p.mu.Unlock()
}

func (p *poller) finish() {
	p.mu.Lock()
	p.finished = true
	p.mu.Unlock()
}

// run polls every servePoll until the generator has finished and every
// job is terminal, or ctx ends.
func (p *poller) run(ctx context.Context) {
	tick := time.NewTicker(servePoll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		p.mu.Lock()
		open, finished := append([]*jobRun(nil), p.open...), p.finished
		p.mu.Unlock()
		if finished && len(open) == 0 {
			return
		}
		var ended []*jobRun
		for _, j := range open {
			var st struct {
				Status   string       `json:"status"`
				Progress *serve.Event `json:"progress"`
			}
			err := get(p.h, "/v1/jobs/"+j.id, &st)
			now := time.Now()
			if err != nil {
				continue
			}
			if st.Progress != nil && j.progress.IsZero() {
				j.progress = now
			}
			if st.Status != serve.StatusRunning {
				if j.progress.IsZero() {
					j.progress = now
				}
				j.terminal, j.status = now, st.Status
				ended = append(ended, j)
			}
		}
		if len(ended) > 0 {
			p.mu.Lock()
			keep := p.open[:0]
			for _, j := range p.open {
				if j.terminal.IsZero() {
					keep = append(keep, j)
				}
			}
			p.open = keep
			p.mu.Unlock()
		}
	}
}

// servePass runs one open-loop pass against a fresh server over fs
// (nil for the real filesystem) and fetches each finished job's final
// energy. The server is drained before it returns.
func servePass(ctx context.Context, dir string, seed uint64, n int, fs fsys.FS) ([]*jobRun, *serve.Server, error) {
	srv, err := serve.NewServer(serverConfig(dir, fs))
	if err != nil {
		return nil, nil, fmt.Errorf("serve.NewServer: %w", err)
	}
	h := srv.Handler()
	jobs := openLoop(ctx, h, seed, n)
	for _, j := range jobs {
		if j.status != serve.StatusDone {
			continue
		}
		var rep serve.TerminalRecord
		if err := get(h, "/v1/jobs/"+j.id+"/report", &rep); err != nil || rep.Summary == nil {
			j.status = "report unavailable"
			continue
		}
		j.energy = rep.Summary.FinalEnergy
	}
	if err := srv.Drain(ctx); err != nil {
		return nil, nil, fmt.Errorf("drain: %w", err)
	}
	return jobs, srv, nil
}

// oracles caches each job spec's bare-mdrun final energy by seed.
type oracles map[uint64]float64

// oracleEnergy runs the job's normalized spec on bare mdrun: the energy
// a served job must reproduce bit for bit.
func oracleEnergy(ctx context.Context, sp serve.Spec) (float64, error) {
	n := sp.Normalized()
	gcfg, err := n.GuardConfig("")
	if err != nil {
		return 0, err
	}
	r, err := mdrun.New(gcfg.Run)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	sum, err := r.RunContext(ctx, n.Steps)
	if err != nil {
		return 0, err
	}
	return sum.FinalEnergy, nil
}

// fill computes the missing oracles for specs on up to nproc (at most
// two) goroutines, after the measured pass.
func (or oracles) fill(ctx context.Context, specs []serve.Spec) error {
	var todo []serve.Spec
	for _, sp := range specs {
		if _, ok := or[sp.Seed]; !ok {
			todo = append(todo, sp)
		}
	}
	energies := make([]float64, len(todo))
	errs := make([]error, len(todo))
	workers := min(2, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				energies[i], errs[i] = oracleEnergy(ctx, todo[i])
			}
		}(w)
	}
	wg.Wait()
	for i, sp := range todo {
		if errs[i] != nil {
			return fmt.Errorf("oracle for seed %d: %w", sp.Seed, errs[i])
		}
		or[sp.Seed] = energies[i]
	}
	return nil
}

// checkJobs counts every job as one operation: it fails unless it was
// admitted, reached done, and ended on its oracle's energy bit for
// bit.
func checkJobs(ctx context.Context, o *outcome, jobs []*jobRun, or oracles) error {
	specs := make([]serve.Spec, 0, len(jobs))
	for _, j := range jobs {
		if j.status == serve.StatusDone {
			specs = append(specs, j.spec)
		}
	}
	if err := or.fill(ctx, specs); err != nil {
		return err
	}
	for k, j := range jobs {
		if j.status != serve.StatusDone {
			o.tally.check(false, "job %d (%s): POST %d, status %q", k, j.id, j.code, j.status)
			continue
		}
		want := or[j.spec.Seed]
		o.tally.check(math.Float64bits(j.energy) == math.Float64bits(want),
			"job %d (%s): final energy %v, bare mdrun %v", k, j.id, j.energy, want)
	}
	return nil
}

// checkLag marks the outcome invalid when the generator ran late.
func checkLag(o *outcome, ps passStats) {
	lag := quantile(ps.lags, 0.95)
	bound := maxLag * 1000 / serveRate
	if lag > bound {
		o.invalid = fmt.Sprintf("load generator p95 lateness %.2fms exceeds %.2fms; the offered rate was not met", lag, bound)
	}
}

// serverSetup returns the median time serve.NewServer takes to reopen
// the store at dir, scaled by the probe runs on either side, draining
// each server it builds. The run's pass has left its jobs there, so
// this is the restart a server pays to scan a store of that size.
func serverSetup(ctx context.Context, dir string) (float64, error) {
	p := newProbe()
	times := make([]float64, 0, serveSetups)
	for i := 0; i < serveSetups; i++ {
		before := p.median(setupProbes)
		t0 := time.Now()
		srv, err := serve.NewServer(serverConfig(dir, nil))
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("serve.NewServer: %w", err)
		}
		times = append(times, scaled(d, (before+p.median(setupProbes))/2).Seconds())
		if err := srv.Drain(ctx); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// robustP95 is the median of the p95s of three consecutive thirds of
// latencies (in submission order), so one host stall moves at most one
// of them; below 9 samples it is the plain p95.
func robustP95(latencies []float64) float64 {
	third := len(latencies) / 3
	if third < 3 {
		return quantile(latencies, 0.95)
	}
	return median([]float64{
		quantile(latencies[:third], 0.95),
		quantile(latencies[third:2*third], 0.95),
		quantile(latencies[2*third:], 0.95),
	})
}

func jobCount(seconds int) int { return max(minJobs, int(serveRate*float64(seconds))) }

// runServe is the untraced end-to-end run of serve-small.
func runServe(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	data := filepath.Join(e.dir, "data")
	jobs, srv, err := servePass(ctx, data, e.seed, jobCount(e.seconds), nil)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	runtime.KeepAlive(srv)
	if err := checkJobs(ctx, o, jobs, oracles{}); err != nil {
		return nil, err
	}
	setup, err := serverSetup(ctx, data)
	if err != nil {
		return nil, err
	}
	ps := summarize(jobs)
	checkLag(o, ps)
	perAtomStep := make([]float64, 0, len(jobs))
	for k, j := range jobs {
		perAtomStep = append(perAtomStep, ps.scaled[k]*1e6/float64(j.spec.Atoms*j.spec.Steps))
	}
	o.set("setup_s", setup, "s")
	o.set("step_ns_per_atom", median(perAtomStep), "ns")
	o.set("heap_mb", heap, "MB")
	o.set("job_p50_ms", median(ps.scaled), "ms")
	o.set("job_p95_ms", robustP95(ps.scaled), "ms")
	o.set("jobs_per_s", ps.jobsPerSec, "1/s")
	o.note("latencies are scaled to a %v probe; the probe's median was %v; unscaled job p50 %.4gms, p95 %.4gms",
		probeRef, ps.probe, median(ps.latency), quantile(ps.latency, 0.95))
	o.note("admit_p50_ms %.4g, admit_p95_ms %.4g (POST timed from its due time, unscaled)",
		median(ps.admit), quantile(ps.admit, 0.95))
	o.note("open loop: %d jobs at %d/s over two tenants; latency resolution %v (poll period); generator p95 lateness %.3gms",
		ps.jobs, serveRate, servePoll, quantile(ps.lags, 0.95))
	return o, nil
}

// traceServe is the traced run of serve-small: an untraced and a traced
// pass of half the run each, the standalone bare and guarded runs of
// one job spec, and a traced rebuild of one job's MD loop for the MD
// layers.
func traceServe(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	n := max(minJobs, jobCount(e.seconds)/2)
	jobs, _, err := servePass(ctx, filepath.Join(e.dir, "untraced"), e.seed, n, nil)
	if err != nil {
		return nil, err
	}
	or := oracles{}
	if err := checkJobs(ctx, o, jobs, or); err != nil {
		return nil, err
	}
	untraced := summarize(jobs)
	checkLag(o, untraced)

	rec := newRecorder()
	traced, err := tracedPass(ctx, e, filepath.Join(e.dir, "traced"), n, rec, o, or)
	if err != nil {
		return nil, err
	}
	o.set("trace.overhead_frac", median(traced.latency)/median(untraced.latency)-1, "fraction")

	// The MD layers of one served job: mdrun's loop rebuilt with spans
	// must reproduce the job's bare-mdrun energy bit for bit.
	sp := jobSpec(e.seed, 0).Normalized()
	gcfg, err := sp.GuardConfig("")
	if err != nil {
		return nil, err
	}
	t, err := rebuildLoop(ctx, gcfg.Run, sp.Steps, nil, rec)
	if err != nil {
		return nil, err
	}
	if err := or.fill(ctx, []serve.Spec{sp}); err != nil {
		return nil, err
	}
	want := or[sp.Seed]
	o.tally.check(math.Float64bits(t.final) == math.Float64bits(want),
		"traced rebuild of job 0 ends on %v, bare mdrun on %v", t.final, want)
	if err := t.probeIdleLayers(e.dir, rec); err != nil {
		return nil, err
	}
	t.report(o, rec.snapshot())
	if e.spans != "" {
		if err := writeSpans(e.spans, rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// tracedPass runs an open-loop pass over a span-recording filesystem,
// checks its jobs, times the standalone bare and guarded runs of one
// job spec, and sets the service per-layer metrics.
func tracedPass(ctx context.Context, e env, dir string, n int, rec *recorder, o *outcome, or oracles) (passStats, error) {
	from := rec.len()
	jobs, _, err := servePass(ctx, dir, e.seed, n, tracedFS{inner: fsys.OS, rec: rec})
	if err != nil {
		return passStats{}, err
	}
	if err := checkJobs(ctx, o, jobs, or); err != nil {
		return passStats{}, err
	}
	ps := summarize(jobs)
	checkLag(o, ps)
	fsStats := jobSpans(rec, from, jobs)

	bare, guarded, err := standalone(ctx, jobSpec(e.seed, 0), filepath.Join(dir, "standalone"))
	if err != nil {
		return passStats{}, err
	}
	o.set("mdrun.job_ms", bare, "ms")
	o.set("guard.overhead_frac", guarded/bare-1, "fraction")
	o.set("guard.checkpoints_per_job", fsStats.checkpoints, "count")
	o.set("fsys.ops_per_job", fsStats.ops, "count")
	o.set("fsys.bytes_per_job", fsStats.bytes, "bytes")
	o.set("fsys.sync_ms_p50", median(fsStats.syncs), "ms")
	o.set("fsys.sync_ms_p95", quantile(fsStats.syncs, 0.95), "ms")
	o.set("fsys.share", fsStats.busy/fsStats.jobTime, "fraction")
	o.set("serve.admit_p50_ms", median(ps.admit), "ms")
	o.set("serve.admit_p95_ms", quantile(ps.admit, 0.95), "ms")
	o.set("serve.queue_wait_ms_p50", median(ps.queueWait), "ms")
	o.set("serve.overhead_ms", median(ps.latency)-guarded, "ms")
	o.set("gen.lag_ms_p95", quantile(ps.lags, 0.95), "ms")
	o.note("service pass: %d jobs at %d/s, job p50 %.3gms; standalone job: bare %.3gms, guarded %.3gms; latency resolution %v",
		ps.jobs, serveRate, median(ps.latency), bare, guarded, servePoll)
	return ps, nil
}

// standalone returns the median wall time in ms of the job spec run on
// bare mdrun (mdrun.New + RunContext) and under the guard
// (guard.New + RunContext, checkpointing to disk as a served job does),
// alternating the two.
func standalone(ctx context.Context, sp serve.Spec, dir string) (bare, guarded float64, err error) {
	sp = sp.Normalized()
	var bs, gs []float64
	for i := 0; i < standalones; i++ {
		gcfg, err := sp.GuardConfig(filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		r, err := mdrun.New(gcfg.Run)
		if err != nil {
			return 0, 0, err
		}
		_, err = r.RunContext(ctx, sp.Steps)
		r.Close()
		if err != nil {
			return 0, 0, err
		}
		bs = append(bs, ms(time.Since(t0)))

		t0 = time.Now()
		sup, err := guard.New(gcfg)
		if err != nil {
			return 0, 0, err
		}
		_, _, err = sup.RunContext(ctx, sp.Steps)
		sup.Close()
		if err != nil {
			return 0, 0, err
		}
		gs = append(gs, ms(time.Since(t0)))
	}
	return median(bs), median(gs), nil
}
