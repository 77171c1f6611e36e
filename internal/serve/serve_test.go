package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/guard"
	"repro/internal/parallel"
)

// testSpec is the standard small job the suite runs: tiny FCC box,
// rescale thermostat (deterministic, and thermostatted runs are not
// NVE-drift-checked, so the plain truncated potential cannot trip the
// watchdog), frequent checkpoints so resume tests have restore points.
func testSpec(steps int) Spec {
	return Spec{
		Atoms: 108, Steps: steps,
		Thermostat:      "rescale",
		CheckpointEvery: 10,
	}
}

// newTestServer builds a Server over a fresh temp store plus an HTTP
// front end. The fleet is single-inflight with a deep queue and one
// worker: deterministic and cheap.
func newTestServer(t *testing.T, dir string, tenancy TenantPolicy) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(Config{
		DataDir: dir,
		Fleet:   fleet.Config{MaxInflight: 1, QueueDepth: 16, WorkerBudget: 1},
		Tenancy: tenancy,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// drainNow force-quiesces a server at the end of a test.
func drainNow(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// submit POSTs a spec and returns the decoded response and status code.
func submit(t *testing.T, hs *httptest.Server, tenant, key string, sp Spec) (submitResponse, int, http.Header) {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs.URL+"/v1/jobs", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode, resp.Header
}

// awaitReport polls /report until the job reaches a terminal state.
func awaitReport(t *testing.T, hs *httptest.Server, id string) TerminalRecord {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hs.Client().Get(hs.URL + "/v1/jobs/" + id + "/report")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var rec TerminalRecord
			if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return rec
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return TerminalRecord{}
}

// oracleEnergy runs the spec start-to-finish under guard directly —
// the same stack the server uses — and returns the final energy.
func oracleEnergy(t *testing.T, sp Spec, steps int) float64 {
	t.Helper()
	gcfg, err := sp.Normalized().GuardConfig(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sup, err := guard.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	sum, _, err := sup.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	return sum.FinalEnergy
}

// TestSubmitAndComplete pins the basic serving contract: a valid spec
// is admitted with a job ID, runs to completion, and the final report
// carries the same physics a direct guard run of the same spec
// produces — the HTTP layer adds delivery, never dynamics.
func TestSubmitAndComplete(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{})
	defer drainNow(t, srv)

	sp := testSpec(30)
	sr, code, _ := submit(t, hs, "alice", "", sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if sr.ID != "job-000001" || sr.Status != StatusRunning {
		t.Fatalf("unexpected submit response: %+v", sr)
	}
	rec := awaitReport(t, hs, sr.ID)
	if rec.Status != StatusDone || rec.Summary == nil {
		t.Fatalf("terminal record: %+v", rec)
	}
	if rec.Summary.Steps != 30 {
		t.Fatalf("summary steps = %d, want 30", rec.Summary.Steps)
	}
	want := oracleEnergy(t, sp, 30)
	if rec.Summary.FinalEnergy != want {
		t.Fatalf("served FinalEnergy %v != direct run %v", rec.Summary.FinalEnergy, want)
	}

	// The status endpoint agrees, and carries progress.
	resp, err := hs.Client().Get(hs.URL + "/v1/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || st.Progress == nil || st.Progress.Step != 30 {
		t.Fatalf("status: %+v", st)
	}
}

// TestIdempotency pins the no-double-run contract within one process:
// the same (tenant, key) returns the original job ID, marked
// deduplicated, and only one job exists; a different tenant reusing
// the key gets its own job.
func TestIdempotency(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{})
	defer drainNow(t, srv)

	sp := testSpec(20)
	first, code, _ := submit(t, hs, "alice", "key-1", sp)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	second, code, _ := submit(t, hs, "alice", "key-1", sp)
	if code != http.StatusOK || !second.Deduplicated || second.ID != first.ID {
		t.Fatalf("resubmit = %d %+v, want 200 dedup of %s", code, second, first.ID)
	}
	other, code, _ := submit(t, hs, "bob", "key-1", sp)
	if code != http.StatusAccepted || other.ID == first.ID {
		t.Fatalf("cross-tenant key collision: %d %+v", code, other)
	}
	// Exactly two jobs exist.
	resp, err := hs.Client().Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("job list has %d entries, want 2", len(list))
	}
}

// TestTenantQuota pins the token bucket: with the server clock frozen,
// a tenant gets exactly Burst admissions, then 429s with a positive
// Retry-After — while a second tenant's bucket is untouched and keeps
// admitting; advancing the server clock refills the bucket.
func TestTenantQuota(t *testing.T) {
	now := time.Unix(1000, 0)
	srv, err := NewServer(Config{
		DataDir: t.TempDir(),
		Fleet:   fleet.Config{MaxInflight: 1, QueueDepth: 16, WorkerBudget: 1},
		Tenancy: TenantPolicy{Rate: 1, Burst: 3, MaxActive: 100},
		Logf:    t.Logf,
		Now:     func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	defer drainNow(t, srv)

	sp := testSpec(5)
	for i := 0; i < 3; i++ {
		if _, code, _ := submit(t, hs, "flood", "", sp); code != http.StatusAccepted {
			t.Fatalf("flood submit %d = %d, want 202", i, code)
		}
	}
	_, code, hdr := submit(t, hs, "flood", "", sp)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After (%q)", ra)
	}
	// The quiet tenant is unaffected by the flood.
	if _, code, _ := submit(t, hs, "quiet", "", sp); code != http.StatusAccepted {
		t.Fatalf("quiet tenant shed during flood: %d", code)
	}
	// Advancing the clock refills the flooding tenant.
	now = now.Add(2 * time.Second)
	if _, code, _ := submit(t, hs, "flood", "", sp); code != http.StatusAccepted {
		t.Fatalf("submit after refill = %d, want 202", code)
	}
}

// TestTenantActiveCap pins fair-share occupancy: a tenant with a full
// token bucket still cannot hold more than MaxActive unfinished jobs,
// and slots free up as jobs finish.
func TestTenantActiveCap(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{Rate: 1000, Burst: 1000, MaxActive: 2})
	defer drainNow(t, srv)

	// Long enough that both jobs are still unfinished when the third
	// submit arrives: the fleet has one slot, so the second job sits in
	// its queue for the whole first run, and occupancy is released only
	// at terminal state.
	sp := testSpec(2500)
	sp.CheckpointEvery = 1000
	var ids []string
	for i := 0; i < 2; i++ {
		sr, code, _ := submit(t, hs, "alice", "", sp)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, sr.ID)
	}
	if _, code, _ := submit(t, hs, "alice", "", sp); code != http.StatusTooManyRequests {
		t.Fatalf("submit over active cap = %d, want 429", code)
	}
	for _, id := range ids {
		awaitReport(t, hs, id)
	}
	if _, code, _ := submit(t, hs, "alice", "", sp); code != http.StatusAccepted {
		t.Fatalf("submit after slots freed = %d, want 202", code)
	}
}

// TestDurableResume is the in-process half of the crash-recovery pin:
// a server is force-drained mid-job (replicas cancelled at a step
// boundary, no terminal record written), a second server opens the
// same data directory, resumes the job from its latest checkpoint, and
// the final observables match an uninterrupted run of the same spec to
// 1e-8 — and an idempotent resubmit across the restart returns the
// original job ID without starting a second run.
func TestDurableResume(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1 := newTestServer(t, dir, TenantPolicy{})

	sp := testSpec(400)
	sr, code, _ := submit(t, hs1, "alice", "resume-key", sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// Wait for at least one on-disk checkpoint past step 0, then yank
	// the server with an already-expired drain deadline: the forced
	// path, cancelling the replica mid-run.
	waitForCheckpoint(t, filepath.Join(dir, "jobs", sr.ID, "ckpt"))
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if err := srv1.Drain(expired); err == nil {
		t.Fatal("forced drain reported clean completion; job finished before the kill — raise steps")
	}
	hs1.Close()

	// No terminal record was written: the job is incomplete on disk.
	if _, err := os.Stat(filepath.Join(dir, "jobs", sr.ID, "sreport.json")); !os.IsNotExist(err) {
		t.Fatalf("terminal record exists after forced drain (err=%v)", err)
	}

	// Restart on the same directory: the job is re-admitted and the
	// same idempotency key maps to it, not to a new run.
	srv2, hs2 := newTestServer(t, dir, TenantPolicy{})
	defer drainNow(t, srv2)
	again, code, _ := submit(t, hs2, "alice", "resume-key", sp)
	if code != http.StatusOK || !again.Deduplicated || again.ID != sr.ID {
		t.Fatalf("resubmit across restart = %d %+v, want dedup of %s", code, again, sr.ID)
	}

	rec := awaitReport(t, hs2, sr.ID)
	if rec.Status != StatusDone || rec.Summary == nil {
		t.Fatalf("resumed job: %+v", rec)
	}
	if !rec.Resumed {
		t.Fatal("terminal record not marked resumed")
	}
	if rec.Summary.Steps != sp.Steps {
		t.Fatalf("resumed summary steps = %d, want %d", rec.Summary.Steps, sp.Steps)
	}
	want := oracleEnergy(t, sp, sp.Steps)
	if diff := math.Abs(rec.Summary.FinalEnergy - want); !(diff <= 1e-8*math.Max(1, math.Abs(want))) {
		t.Fatalf("resumed FinalEnergy %v vs uninterrupted %v (diff %g)", rec.Summary.FinalEnergy, want, diff)
	}
	// Still exactly one job: the restart re-admitted, never duplicated.
	srv2.mu.Lock()
	n := len(srv2.jobs)
	srv2.mu.Unlock()
	if n != 1 {
		t.Fatalf("restarted server tracks %d jobs, want 1", n)
	}
}

// waitForCheckpoint blocks until dir holds a checkpoint for a step > 0.
func waitForCheckpoint(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		entries, err := os.ReadDir(dir)
		if err == nil {
			for _, e := range entries {
				name := e.Name()
				if strings.HasPrefix(name, "ckpt-") && !strings.Contains(name, "000000000") {
					return
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no mid-run checkpoint appeared")
}

// TestDrainRejectsSubmits pins drain semantics at the API edge: during
// and after drain, submissions get 503 and health reports draining,
// while already-admitted jobs still complete and their reports remain
// fetchable.
func TestDrainRejectsSubmits(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{})
	sr, code, _ := submit(t, hs, "alice", "", testSpec(20))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	drainNow(t, srv)

	if _, code, _ := submit(t, hs, "alice", "", testSpec(5)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", code)
	}
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	rec := awaitReport(t, hs, sr.ID)
	if rec.Status != StatusDone {
		t.Fatalf("drained job: %+v", rec)
	}
}

// TestSSEStream pins the observable stream: a client sees segment
// events with monotonically increasing steps and a final done event
// carrying the terminal status — including a client that connects
// after completion, which gets the whole backlog replayed.
func TestSSEStream(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{})
	defer drainNow(t, srv)

	sr, code, _ := submit(t, hs, "alice", "", testSpec(30))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	for _, phase := range []string{"live", "replay"} {
		segments, status := readSSE(t, hs, sr.ID)
		if len(segments) == 0 {
			t.Fatalf("%s: no segment events", phase)
		}
		last := -1
		for _, e := range segments {
			if e.Step <= last {
				t.Fatalf("%s: non-monotonic steps: %d after %d", phase, e.Step, last)
			}
			last = e.Step
		}
		if last != 30 || status != StatusDone {
			t.Fatalf("%s: final step %d status %q", phase, last, status)
		}
	}
}

// readSSE consumes one /events stream to its done event.
func readSSE(t *testing.T, hs *httptest.Server, id string) ([]Event, string) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var (
		segments []Event
		event    string
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "segment":
				var e Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Fatalf("segment payload %q: %v", data, err)
				}
				segments = append(segments, e)
			case "done":
				var d struct {
					Status string `json:"status"`
				}
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					t.Fatalf("done payload %q: %v", data, err)
				}
				return segments, d.Status
			}
		}
	}
	t.Fatalf("stream ended without done event (scan err %v)", sc.Err())
	return nil, ""
}

// TestBadRequests pins the validation edge: malformed JSON, spec-cap
// violations, unknown fields, and lookups of jobs that do not exist
// all produce clean, typed errors — never a panic, never an accepted
// garbage job.
func TestBadRequests(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{})
	defer drainNow(t, srv)

	post := func(body string) int {
		resp, err := hs.Client().Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON = %d, want 400", code)
	}
	if code := post(`{"atoms": 108, "steps": 10, "bogus": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", code)
	}
	for _, bad := range []string{
		fmt.Sprintf(`{"atoms": %d, "steps": 10}`, MaxAtoms+1),
		fmt.Sprintf(`{"atoms": 108, "steps": %d}`, MaxSteps+1),
		`{"atoms": 108, "steps": 10, "method": "warp-drive"}`,
		`{"atoms": 108, "steps": 10, "thermostat": "langevin"}`,
		`{"atoms": 108, "steps": 10, "dt": -1}`,
	} {
		if code := post(bad); code != http.StatusUnprocessableEntity {
			t.Fatalf("spec %s = %d, want 422", bad, code)
		}
	}
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/report", "/v1/jobs/job-999999/events"} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSparseCellGridJobCompletes pins that a valid spec cannot take
// the process down: two atoms at density 1e-12 put the pairlist
// build's cell grid in a box ~4000 list radii wide, and the job must
// still run to done (the grid is sized for the atom count, not the
// box).
func TestSparseCellGridJobCompletes(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{})
	defer drainNow(t, srv)

	resp, err := hs.Client().Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"atoms":2,"steps":1,"density":1e-12,"method":"pairlist"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		t.Fatalf("submit = %d (%v), want 202", resp.StatusCode, derr)
	}
	if rec := awaitReport(t, hs, sr.ID); rec.Status != StatusDone {
		t.Fatalf("terminal record: %+v", rec)
	}
}

// TestSpecVocabulary pins the method/workers vocabulary of a job
// spec: only direct|pairlist name a kernel (the retired cellgrid
// method and par* spellings are refused), the retired precision field
// is an unknown field, workers above parallel.MaxWorkers are refused
// rather than clamped, and workers 0 persists as 1 — the exact serial
// kernel the job runs.
func TestSpecVocabulary(t *testing.T) {
	srv, hs := newTestServer(t, t.TempDir(), TenantPolicy{})
	defer drainNow(t, srv)

	for _, c := range []struct {
		body        string
		code        int
		wantWorkers int // checked on the persisted spec when accepted
	}{
		{`{"atoms": 108, "steps": 5, "method": "pardirect", "workers": 2}`, http.StatusUnprocessableEntity, 0},
		{`{"atoms": 108, "steps": 5, "method": "parpairlist"}`, http.StatusUnprocessableEntity, 0},
		{`{"atoms": 864, "steps": 5, "method": "parcellgrid"}`, http.StatusUnprocessableEntity, 0},
		{`{"atoms": 864, "steps": 5, "method": "cellgrid"}`, http.StatusUnprocessableEntity, 0},
		{`{"atoms": 108, "steps": 5, "method": "pairlist", "precision": "f32"}`, http.StatusBadRequest, 0},
		{`{"atoms": 108, "steps": 5, "precision": "f64"}`, http.StatusBadRequest, 0},
		{`{"atoms": 108, "steps": 5, "workers": -1}`, http.StatusUnprocessableEntity, 0},
		{`{"atoms": 108, "steps": 5, "workers": 257}`, http.StatusUnprocessableEntity, 0},
		{`{"atoms": 108, "steps": 5, "workers": 256}`, http.StatusAccepted, 256},
		{`{"atoms": 108, "steps": 5, "method": "pairlist"}`, http.StatusAccepted, 1},
		{`{"atoms": 108, "steps": 5, "method": "direct", "workers": 0}`, http.StatusAccepted, 1},
		{`{"atoms": 108, "steps": 5, "method": "direct", "workers": 2}`, http.StatusAccepted, 2},
	} {
		resp, err := hs.Client().Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		derr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Fatalf("%s = %d, want %d", c.body, resp.StatusCode, c.code)
		}
		if c.code != http.StatusAccepted {
			continue
		}
		if derr != nil {
			t.Fatalf("%s: decoding submit response: %v", c.body, derr)
		}
		st, err := hs.Client().Get(hs.URL + "/v1/jobs/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var status statusResponse
		derr = json.NewDecoder(st.Body).Decode(&status)
		st.Body.Close()
		if derr != nil {
			t.Fatalf("%s: decoding status: %v", c.body, derr)
		}
		if status.Spec.Workers != c.wantWorkers {
			t.Errorf("%s: persisted workers %d, want %d", c.body, status.Spec.Workers, c.wantWorkers)
		}
	}
}

// TestScanToleratesGarbage pins the recovery scan's robustness: job
// directories with missing or corrupt admission records are skipped
// (nothing was promised for them), and a corrupt latest checkpoint is
// skipped in favor of an older valid one — the server always starts.
func TestScanToleratesGarbage(t *testing.T) {
	dir := t.TempDir()

	// A finished job, a dir without a spec, and a dir with a torn spec.
	srv1, hs1 := newTestServer(t, dir, TenantPolicy{})
	sr, code, _ := submit(t, hs1, "alice", "done-key", testSpec(20))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	awaitReport(t, hs1, sr.ID)
	drainNow(t, srv1)
	hs1.Close()
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "job-000777"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "weird"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "weird", "spec.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, hs2 := newTestServer(t, dir, TenantPolicy{})
	defer drainNow(t, srv2)
	// The finished job survived with its report and idempotency key;
	// the garbage was ignored; IDs continue past the orphan dir's
	// number (no reuse under a contaminated namespace).
	rec := awaitReport(t, hs2, sr.ID)
	if rec.Status != StatusDone {
		t.Fatalf("restarted terminal record: %+v", rec)
	}
	again, code, _ := submit(t, hs2, "alice", "done-key", testSpec(20))
	if code != http.StatusOK || !again.Deduplicated || again.ID != sr.ID {
		t.Fatalf("idempotency lost across restart: %d %+v", code, again)
	}
	fresh, code, _ := submit(t, hs2, "alice", "", testSpec(5))
	if code != http.StatusAccepted || fresh.ID != JobID(778) {
		t.Fatalf("fresh ID after orphan dir = %+v (code %d), want %s", fresh, code, JobID(778))
	}
}

// TestRestartFailsUnrunnableSpecs restarts over a store holding
// incomplete jobs whose persisted specs no longer validate: a retired
// method ("pardirect", "cellgrid") and a worker count above
// parallel.MaxWorkers. The server must start, report each job failed
// with its validation error, persist the terminal record, and keep the
// job failed across a second restart instead of re-admitting it.
func TestRestartFailsUnrunnableSpecs(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]Spec{}
	for i, mut := range []func(*Spec){
		func(sp *Spec) { sp.Method = "pardirect" },
		func(sp *Spec) { sp.Method = "cellgrid"; sp.Atoms = 864 },
		func(sp *Spec) { sp.Workers = parallel.MaxWorkers + 1 },
	} {
		sp := testSpec(20).Normalized()
		mut(&sp)
		id := JobID(i + 1)
		if err := st.PutSpec(JobRecord{ID: id, Tenant: "alice", Spec: sp}); err != nil {
			t.Fatal(err)
		}
		bad[id] = sp
	}

	for restart := 1; restart <= 2; restart++ {
		srv, hs := newTestServer(t, dir, TenantPolicy{})
		for id := range bad {
			resp, err := hs.Client().Get(hs.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var status statusResponse
			derr := json.NewDecoder(resp.Body).Decode(&status)
			resp.Body.Close()
			if derr != nil {
				t.Fatalf("restart %d: %s: decoding status: %v", restart, id, derr)
			}
			if status.Status != StatusFailed || status.Error == "" {
				t.Fatalf("restart %d: %s (%+v): status %q error %q, want failed with the validation error",
					restart, id, bad[id], status.Status, status.Error)
			}
		}
		scanned, _, err := st.Scan()
		if err != nil {
			t.Fatal(err)
		}
		persisted := map[string]*TerminalRecord{}
		for _, sj := range scanned {
			persisted[sj.Record.ID] = sj.Terminal
		}
		for id := range bad {
			if rec := persisted[id]; rec == nil || rec.Status != StatusFailed {
				t.Fatalf("restart %d: %s: persisted terminal record %+v, want failed", restart, id, rec)
			}
		}
		drainNow(t, srv)
		hs.Close()
	}
}

// TestFleetOverload429 pins load-shed mapping: when the fleet queue is
// full, the client sees 429 with the fixed 2 s Retry-After, and the
// rolled-back job leaves no trace — neither on disk nor in the ID
// sequence.
func TestFleetOverload429(t *testing.T) {
	srv, err := NewServer(Config{
		DataDir: t.TempDir(),
		// One slot, no queue: the second concurrent job must shed.
		Fleet:   fleet.Config{MaxInflight: 1, QueueDepth: -1, WorkerBudget: 1},
		Tenancy: TenantPolicy{Rate: 1000, Burst: 1000, MaxActive: 1000},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	defer drainNow(t, srv)

	first, code, _ := submit(t, hs, "alice", "", testSpec(200))
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	var hdr http.Header
	code = 0
	// The first job may finish quickly; shed detection needs the slot
	// occupied, so retry the overload probe while the first job runs.
	for i := 0; i < 50 && code != http.StatusTooManyRequests; i++ {
		_, code, hdr = submit(t, hs, "alice", "", testSpec(200))
		if code == http.StatusAccepted {
			t.Skip("fleet absorbed both jobs; overload not reachable on this machine")
		}
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", code)
	}
	if hdr.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want 2", hdr.Get("Retry-After"))
	}
	// The shed job's directory was rolled back.
	entries, err := os.ReadDir(filepath.Join(srv.store.root, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d job dirs after shed, want 1 (only %s)", len(entries), first.ID)
	}
}
