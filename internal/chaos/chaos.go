// Package chaos is the deterministic chaos-campaign runner for the
// serving stack. The paper's regime — long trajectories on commodity
// accelerators — is exactly where partial failure dominates: a
// multi-hour run loses everything not checkpointed, and the
// store/guard/fleet/serve stack has dozens of interleaved failure
// points a single hand-written crash test cannot cover. This package
// composes fault schedules across the whole stack (filesystem faults
// through the fsys seam, force corruption through the run injector,
// simulated process crashes, tenant floods), replays each schedule
// against an in-process mdserve, and checks end-to-end invariants
// after every run:
//
//	I1  every acknowledged job reaches a terminal state (or resumes
//	    across the crash and then reaches one);
//	I2  a job that finished cleanly has the same final energy (1e-8)
//	    as an uninterrupted oracle run of the same normalized spec —
//	    resume is physically faithful, not merely "it completed";
//	I3  idempotency keys never double-run, including across a crash;
//	I4  a replay leaks no goroutines;
//	I5  the store directory is never left unparseable: a clean-disk
//	    Scan succeeds and reports no job that was never acknowledged;
//	I6  filesystem faults alone never fail a job — storage trouble
//	    degrades durability, it must not corrupt physics.
//
// A failing schedule shrinks automatically (see Shrink) to a minimal
// reproducer, printed as a one-line mdchaos command.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/fsys"
	"repro/internal/guard"
	"repro/internal/serve"
)

// Result is the outcome of replaying one schedule.
type Result struct {
	Schedule Schedule
	// Violations lists every invariant breach, empty for a clean run.
	Violations []string
	// Acked is how many submissions were acknowledged (main + flood).
	Acked int
	// Refused is how many submissions were refused (429/503) — legal
	// under fault pressure, counted for campaign summaries.
	Refused int
	// FSSnapshot and ComputeSnapshot export the exact armed schedule
	// and fired events of the failing run, for diagnosis.
	FSSnapshot      faults.RegistrySnapshot
	ComputeSnapshot faults.RegistrySnapshot
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

func (r *Result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// swapFS is the healable disk: a fault injector whose registry can be
// withdrawn at the crash boundary, modeling a disk that comes back.
type swapFS struct {
	mu sync.Mutex
	in faults.Injector
}

func (d *swapFS) Fire(site faults.Site) *faults.Fault {
	d.mu.Lock()
	in := d.in
	d.mu.Unlock()
	return faults.Fire(in, site)
}

func (d *swapFS) heal() {
	d.mu.Lock()
	d.in = nil
	d.mu.Unlock()
}

// baseSpec is the workload every chaos job runs: the suite's standard
// tiny FCC box with a rescale thermostat (deterministic, not
// drift-checked) and frequent checkpoints so crash points land
// between restore points.
func baseSpec(steps int) serve.Spec {
	return serve.Spec{
		Atoms:           108,
		Steps:           steps,
		Thermostat:      "rescale",
		CheckpointEvery: 10,
		KeepCheckpoints: 3,
	}
}

// oracleCache memoizes uninterrupted final energies per step count —
// every chaos job shares the base spec, so one guard run per distinct
// Steps serves a whole campaign.
var oracleCache sync.Map // int (steps) -> float64

// oracleEnergy runs the base spec start-to-finish on a healthy stack.
func oracleEnergy(steps int, scratch string) (float64, error) {
	if e, ok := oracleCache.Load(steps); ok {
		return e.(float64), nil
	}
	gcfg, err := baseSpec(steps).Normalized().GuardConfig(scratch)
	if err != nil {
		return 0, err
	}
	sup, err := guard.New(gcfg)
	if err != nil {
		return 0, err
	}
	defer sup.Close()
	sum, _, err := sup.Run(steps)
	if err != nil {
		return 0, err
	}
	oracleCache.Store(steps, sum.FinalEnergy)
	return sum.FinalEnergy, nil
}

// replayEnv is the per-replay server plumbing.
type replayEnv struct {
	dir     string
	disk    *swapFS
	fs      fsys.FS
	compute *faults.Registry
	handler http.Handler
	srv     *serve.Server
}

// serverConfig builds the deterministic mdserve configuration every
// replay uses: single-inflight fleet (sequential job execution), a
// frozen server clock under a generous quota (quota decisions depend
// only on the schedule, never on wall time), and probe-every-submission
// degraded recovery.
func (env *replayEnv) serverConfig() serve.Config {
	frozen := time.Unix(1_000_000, 0)
	return serve.Config{
		DataDir: env.dir,
		Fleet: fleet.Config{
			MaxInflight:  1,
			QueueDepth:   64,
			WorkerBudget: 1,
		},
		Tenancy: serve.TenantPolicy{
			Rate: 1, Burst: 1024, MaxActive: 512,
		},
		FS:         env.fs,
		Faults:     env.compute,
		ProbeEvery: -1,
		Now:        func() time.Time { return frozen },
		Logf:       func(string, ...any) {},
	}
}

// start builds (or rebuilds, after a crash) the server. On restart
// failure with a still-faulty disk it heals and retries once: a disk
// that never returns makes refusal correct, and the campaign wants to
// check the recovery path, not the refusal path.
func (env *replayEnv) start(res *Result) error {
	srv, err := serve.NewServer(env.serverConfig())
	if err != nil {
		env.disk.heal()
		srv, err = serve.NewServer(env.serverConfig())
		if err != nil {
			res.violate("I5: restart failed on a healthy disk: %v", err)
			return err
		}
	}
	env.srv = srv
	env.handler = srv.Handler()
	return nil
}

// Replay runs one schedule against a fresh in-process mdserve and
// checks every invariant. The returned error is infrastructural (the
// replay itself could not run); invariant breaches land in
// Result.Violations.
func Replay(ctx context.Context, dir string, sched Schedule) (*Result, error) {
	sched = sched.normalized()
	res := &Result{Schedule: sched}
	fsReg, computeReg, err := sched.registries()
	if err != nil {
		return nil, err
	}
	baseGoroutines := runtime.NumGoroutine()

	env := &replayEnv{
		dir:     dir,
		disk:    &swapFS{in: fsReg},
		compute: computeReg,
	}
	env.fs = fsys.Faulty(fsys.OS, env.disk)
	if err := env.start(res); err != nil {
		return res, nil
	}

	type ackedJob struct {
		id, key string
		done    bool // reached terminal before the crash boundary
	}
	var acked []ackedJob

	post := func(tenant, key string, sp serve.Spec) (id string, code int, dedup bool) {
		body := strings.NewReader(fmt.Sprintf(
			`{"atoms":%d,"steps":%d,"thermostat":"rescale","checkpoint_every":%d,"keep_checkpoints":%d}`,
			sp.Atoms, sp.Steps, sp.CheckpointEvery, sp.KeepCheckpoints))
		req := httptest.NewRequest("POST", "/v1/jobs", body)
		req.Header.Set("X-Tenant", tenant)
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		rw := httptest.NewRecorder()
		env.handler.ServeHTTP(rw, req)
		var sr struct {
			ID           string `json:"id"`
			Deduplicated bool   `json:"deduplicated"`
		}
		decodeBody(rw, &sr)
		return sr.ID, rw.Code, sr.Deduplicated
	}
	status := func(id string) (string, bool) {
		req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
		rw := httptest.NewRecorder()
		env.handler.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			return "", false
		}
		var st struct {
			Status string `json:"status"`
		}
		decodeBody(rw, &st)
		return st.Status, true
	}
	awaitTerminal := func(id string) (string, error) {
		deadline := time.Now().Add(60 * time.Second)
		for {
			if st, ok := status(id); ok && (st == serve.StatusDone || st == serve.StatusFailed) {
				return st, nil
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("job %s never reached a terminal state", id)
			}
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	spec := baseSpec(sched.Steps)

	// Phase 1: tenant flood — a burst of unkeyed admissions from a
	// second tenant. Refusals (quota, queue, storage) are legal; every
	// acknowledgment is binding.
	for i := 0; i < sched.Flood; i++ {
		id, code, _ := post("flood", "", baseSpec(20))
		switch code {
		case http.StatusAccepted:
			acked = append(acked, ackedJob{id: id})
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			res.Refused++
		default:
			res.violate("I1: flood submission %d: unexpected status %d", i, code)
		}
	}

	// Phase 2: main jobs, sequential. Each is submitted with an
	// idempotency key, immediately resubmitted (must dedup), and —
	// except a crash-target last job — awaited to terminal before the
	// next, which is what pins fault call numbers across replays.
	crashTarget := ""
	for k := 0; k < sched.Jobs; k++ {
		key := fmt.Sprintf("chaos-%d", k)
		id, code, dedup := post("chaos", key, spec)
		switch code {
		case http.StatusAccepted:
			if dedup {
				res.violate("I3: fresh key %s reported deduplicated", key)
			}
			acked = append(acked, ackedJob{id: id, key: key})
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			res.Refused++
			continue
		default:
			res.violate("I1: job %d: unexpected status %d", k, code)
			continue
		}
		if id2, code2, dedup2 := post("chaos", key, spec); code2 != http.StatusOK || !dedup2 || id2 != id {
			res.violate("I3: resubmit of key %s: code %d, dedup %v, id %s (want 200, true, %s)",
				key, code2, dedup2, id2, id)
		}
		last := k == sched.Jobs-1
		if sched.Crash && last {
			crashTarget = id
			continue // interrupted below, not awaited
		}
		st, err := awaitTerminal(id)
		if err != nil {
			res.violate("I1: %v", err)
			continue
		}
		acked[len(acked)-1].done = true
		_ = st
	}

	// Phase 3: simulated crash — forced drain cancels the in-flight
	// replica within one MD step and writes no terminal record; then
	// the server restarts on the same directory and must resume.
	if sched.Crash {
		if crashTarget != "" {
			waitForCrashPoint(ctx, env, crashTarget)
		}
		expired, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
		_ = env.srv.Drain(expired) // error expected: this IS the crash
		cancel()
		if sched.Heal {
			env.disk.heal()
		}
		if err := env.start(res); err != nil {
			return res, nil
		}
		// Idempotency across the crash: every key admitted before the
		// crash must dedup to its original ID in the restarted server.
		for _, a := range acked {
			if a.key == "" {
				continue
			}
			id2, code2, dedup2 := post("chaos", a.key, spec)
			if code2 != http.StatusOK || !dedup2 || id2 != a.id {
				res.violate("I3: key %s after crash: code %d, dedup %v, id %s (want 200, true, %s)",
					a.key, code2, dedup2, id2, a.id)
			}
		}
	}

	// Phase 4: graceful drain — every acknowledged job must reach a
	// terminal state (resumed jobs finish their remaining steps first).
	for _, a := range acked {
		if a.done {
			continue
		}
		if _, err := awaitTerminal(a.id); err != nil {
			res.violate("I1: %v", err)
		}
	}
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	if err := env.srv.Drain(drainCtx); err != nil {
		res.violate("I1: final drain: %v", err)
	}
	cancel()

	// Invariant sweep over the quiesced server and the raw store.
	res.Acked = len(acked)
	oracle := math.NaN()
	if !sched.HasComputeFaults() {
		if e, err := oracleEnergy(sched.Steps, dir+"-oracle"); err != nil {
			return nil, fmt.Errorf("chaos: oracle run: %w", err)
		} else {
			oracle = e
		}
	}
	for _, a := range acked {
		st, ok := status(a.id)
		if !ok || (st != serve.StatusDone && st != serve.StatusFailed) {
			res.violate("I1: job %s final status %q", a.id, st)
			continue
		}
		if st == serve.StatusFailed && !sched.HasComputeFaults() {
			res.violate("I6: job %s failed under filesystem faults alone", a.id)
		}
		if st == serve.StatusDone && !math.IsNaN(oracle) && a.key != "" {
			if rec := terminalOf(env, a.id); rec != nil && rec.Summary != nil {
				if diff := math.Abs(rec.Summary.FinalEnergy - oracle); diff > 1e-8*math.Max(1, math.Abs(oracle)) {
					res.violate("I2: job %s final energy %.12g differs from oracle %.12g by %.3g",
						a.id, rec.Summary.FinalEnergy, oracle, diff)
				}
			}
		}
	}

	// I5: the store survives everything the schedule did — a clean
	// disk scan parses, and reports no job nobody was promised.
	cleanStore, err := serve.NewStore(dir, nil)
	if err != nil {
		res.violate("I5: reopening store: %v", err)
	} else if scanned, _, serr := cleanStore.Scan(); serr != nil {
		res.violate("I5: clean-disk Scan failed: %v", serr)
	} else {
		known := make(map[string]bool, len(acked))
		for _, a := range acked {
			known[a.id] = true
		}
		for _, sj := range scanned {
			if !known[sj.Record.ID] {
				res.violate("I5: store holds job %s that was never acknowledged", sj.Record.ID)
			}
		}
	}

	// I4: no goroutine leaks, with a settle loop for runtime noise.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseGoroutines+2 {
			break
		}
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines+2 {
		res.violate("I4: goroutine leak: %d before, %d after", baseGoroutines, n)
	}

	res.FSSnapshot = fsReg.Snapshot()
	res.ComputeSnapshot = computeReg.Snapshot()
	return res, nil
}

// waitForCrashPoint blocks until the crash target is mid-run with a
// checkpoint on disk (the interesting crash point), already terminal,
// or the wait budget expires (legal under write faults that suppress
// every checkpoint — the crash then exercises the start-over path).
func waitForCrashPoint(ctx context.Context, env *replayEnv, id string) {
	deadline := time.Now().Add(30 * time.Second)
	ckptDir := env.srv.CheckpointDirOf(id)
	for time.Now().Before(deadline) {
		if ents, err := fsys.OS.ReadDir(ckptDir); err == nil {
			n := 0
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".mdcp") {
					n++
				}
			}
			// Two checkpoints ≈ the baseline plus one mid-run commit:
			// the crash lands strictly inside the trajectory.
			if n >= 2 {
				return
			}
		}
		req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
		rw := httptest.NewRecorder()
		env.handler.ServeHTTP(rw, req)
		var st struct {
			Status string `json:"status"`
		}
		decodeBody(rw, &st)
		if st.Status == serve.StatusDone || st.Status == serve.StatusFailed {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// terminalOf fetches a job's terminal record through the API.
func terminalOf(env *replayEnv, id string) *serve.TerminalRecord {
	req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/report", nil)
	rw := httptest.NewRecorder()
	env.handler.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		return nil
	}
	var rec serve.TerminalRecord
	decodeBody(rw, &rec)
	return &rec
}

// decodeBody parses a recorded JSON response, tolerating error
// payloads that do not match v (the caller checks the status code).
func decodeBody(rw *httptest.ResponseRecorder, v any) {
	_ = json.Unmarshal(rw.Body.Bytes(), v)
}
