package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/fsys"
	"repro/internal/md"
)

// Job status values as reported by the API.
const (
	StatusRunning = "running" // admitted (queued or executing)
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// overloadRetrySeconds is the Retry-After hint for fleet-overload
// 429s: a fixed "come back shortly", since the fleet cannot say when
// an inflight slot will open.
const overloadRetrySeconds = 2

// degradeAfter is how many consecutive admission-time storage failures
// flip the server into degraded read-only mode: new admissions are
// refused with 503, existing jobs keep running and streaming.
const degradeAfter = 3

// Config describes a Server.
type Config struct {
	// DataDir roots the durable job store.
	DataDir string
	// Fleet configures the replica scheduler the jobs run on.
	Fleet fleet.Config
	// Tenancy is the per-tenant quota policy.
	Tenancy TenantPolicy
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// FS, when non-nil, replaces the real filesystem under the store
	// and every job's checkpoint directory — the chaos campaigns' disk.
	FS fsys.FS
	// Faults, when non-nil, is armed on every job's run config (force
	// corruption, worker panics) — the chaos campaigns' compute faults.
	Faults faults.Injector

	// ProbeEvery rate-limits the store write probes that let a degraded
	// server recover: at most one probe per interval, tried on the next
	// submission. Default 1s; negative probes on every submission (the
	// deterministic setting chaos campaigns use).
	ProbeEvery time.Duration
	// Now is the clock for the tenant quota buckets and probe pacing,
	// replaceable for tests. Default time.Now.
	Now func() time.Time
}

// jobState is the in-memory view of one job.
type jobState struct {
	rec      JobRecord
	status   string
	resumed  bool
	terminal *TerminalRecord
	progress *progressLog
}

// Server is the simulation service: HTTP admission in front, the fleet
// scheduler behind, the durable store underneath. Construct with
// NewServer, route through Handler, stop with Drain.
type Server struct {
	cfg     Config
	store   *Store
	tenants *tenants
	sched   *fleet.Scheduler

	// runCtx bounds every replica the server submits; runCancel is the
	// forced half of drain — cancelling it stops replicas within one MD
	// step, leaving their latest checkpoints as the resume points.
	runCtx    context.Context
	runCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*jobState
	idem     map[string]string // tenant\x00key -> job ID
	nextSeq  int
	draining bool
	shed     int64 // admissions rejected by fleet overload

	// Degraded-mode state machine: admitFails counts consecutive
	// admission-time storage failures; reaching degradeAfter flips
	// degraded, and a successful store probe (or admission write)
	// clears it. storageErrors is the lifetime tally for /v1/stats.
	degraded      bool
	admitFails    int
	storageErrors int64
	lastProbe     time.Time

	jobsWG sync.WaitGroup // one per admitted job: its result waiter
}

// NewServer opens the store, recovers persisted state, re-admits
// incomplete jobs (resuming each from its latest CRC-valid
// checkpoint), and starts the fleet scheduler.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	st, err := NewStore(cfg.DataDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	scanned, maxSeq, err := st.Scan()
	if err != nil {
		return nil, err
	}
	runCtx, runCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     st,
		tenants:   newTenants(cfg.Tenancy, cfg.Now),
		sched:     fleet.New(cfg.Fleet),
		runCtx:    runCtx,
		runCancel: runCancel,
		jobs:      make(map[string]*jobState),
		idem:      make(map[string]string),
		nextSeq:   maxSeq,
	}
	for _, sj := range scanned {
		js := &jobState{rec: sj.Record, progress: newProgressLog()}
		if sj.Record.Key != "" {
			s.idem[idemKey(sj.Record.Tenant, sj.Record.Key)] = sj.Record.ID
		}
		s.jobs[sj.Record.ID] = js
		if sj.Terminal != nil {
			js.status = sj.Terminal.Status
			js.terminal = sj.Terminal
			js.progress.close()
			continue
		}
		if err := sj.Record.Spec.Validate(); err != nil {
			s.failUnrunnable(js, err)
			continue
		}
		// Incomplete: the admission was promised to a client, so the job
		// is re-admitted without spending quota tokens (it was paid for
		// at first submission) — only the occupancy slot is retaken.
		js.status = StatusRunning
		js.resumed = true
		s.tenants.reserve(sj.Record.Tenant)
		rep, fromStep := s.replica(js, sj.System)
		if sj.CorruptCheckpoints > 0 {
			cfg.Logf("serve: job %s: skipped %d corrupt checkpoint(s) during recovery", sj.Record.ID, sj.CorruptCheckpoints)
		}
		cfg.Logf("serve: resuming job %s for tenant %q from step %d (%d remaining)",
			sj.Record.ID, sj.Record.Tenant, fromStep, sj.Record.Spec.Steps-fromStep)
		s.jobsWG.Add(1)
		// Submit synchronously: the fleet is fresh and its queue empty,
		// so recovered jobs are back in line before the constructor
		// returns — an immediate Drain then still runs them to their
		// terminal states instead of racing the re-admission. Only a
		// recovery load exceeding the whole queue falls back to the
		// background retry loop (and stays resumable if it loses a race
		// with shutdown).
		if tk, err := s.sched.Submit(s.runCtx, rep); err == nil {
			go s.await(js, tk)
		} else {
			go s.admitRecovered(js, rep)
		}
	}
	return s, nil
}

// failUnrunnable ends a recovered incomplete job whose persisted spec
// no longer validates (it names a method or a worker count this build
// refuses) with a failed terminal record instead of re-admitting it.
// The record is persisted when the store allows; when it does not, the
// next start re-validates and fails the job again, so it never runs.
func (s *Server) failUnrunnable(js *jobState, err error) {
	rec := TerminalRecord{ID: js.rec.ID, Status: StatusFailed, Error: err.Error()}
	s.cfg.Logf("serve: job %s: persisted spec no longer valid, marking it failed: %v", js.rec.ID, err)
	if perr := s.store.PutTerminal(rec); perr != nil {
		s.cfg.Logf("serve: job %s: persisting terminal record: %v", js.rec.ID, perr)
	}
	js.status = rec.Status
	js.terminal = &rec
	js.progress.close()
}

// idemKey joins a tenant and idempotency key into one index key; the
// NUL separator cannot appear in either half.
func idemKey(tenant, key string) string { return tenant + "\x00" + key }

// submitResponse is the POST /v1/jobs payload.
type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Deduplicated marks a response satisfied by the idempotency index:
	// the ID is the original job's, and no new run was started.
	Deduplicated bool `json:"deduplicated,omitempty"`
}

// apiError is the JSON error payload.
type apiError struct {
	Error string `json:"error"`
}

// submit runs the admission pipeline for one validated spec. It
// returns the response, the HTTP status to send, and for 429s the
// Retry-After hint in seconds (0 means no header).
func (s *Server) submit(tenant, key string, sp Spec) (submitResponse, int, string, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return submitResponse{}, http.StatusServiceUnavailable, "serve: draining, not accepting jobs", 0
	}
	if key != "" {
		if id, ok := s.idem[idemKey(tenant, key)]; ok {
			return submitResponse{ID: id, Status: s.jobs[id].status, Deduplicated: true}, http.StatusOK, "", 0
		}
	}
	if s.degraded && !s.tryRecoverLocked() {
		return submitResponse{}, http.StatusServiceUnavailable,
			"serve: degraded: storage unavailable, not accepting jobs", s.storageRetrySeconds()
	}
	if err := s.tenants.admit(tenant); err != nil {
		var qe *quotaError
		if errors.As(err, &qe) {
			return submitResponse{}, http.StatusTooManyRequests, err.Error(), retryAfterSeconds(qe.retryAfter)
		}
		return submitResponse{}, http.StatusInternalServerError, err.Error(), 0
	}
	// Quota spent; any failure below must release the slot.
	seq := s.nextSeq + 1
	id := JobID(seq)
	rec := JobRecord{ID: id, Tenant: tenant, Key: key, Spec: sp}
	if err := s.store.PutSpec(rec); err != nil {
		// PutSpec cleans up after itself, so nothing half-persisted
		// survives for the recovery scan to resurrect. A storage failure
		// is the disk's problem, not the client's: 503 + Retry-After,
		// and enough of them in a row flips the server degraded.
		s.tenants.release(tenant)
		s.noteStorageFailureLocked(err)
		return submitResponse{}, http.StatusServiceUnavailable, err.Error(), s.storageRetrySeconds()
	}
	s.admitFails = 0
	js := &jobState{rec: rec, status: StatusRunning, progress: newProgressLog()}
	rep, _ := s.replica(js, nil)
	tk, err := s.sched.Submit(s.runCtx, rep)
	if err != nil {
		// The spec was persisted but the fleet shed it: roll the
		// admission back entirely so a restart does not resurrect a job
		// the client was told to retry.
		if rerr := s.store.Remove(id); rerr != nil {
			s.cfg.Logf("serve: rolling back shed job %s: %v", id, rerr)
		}
		s.tenants.release(tenant)
		if errors.Is(err, fleet.ErrOverloaded) {
			s.shed++
			return submitResponse{}, http.StatusTooManyRequests, err.Error(), overloadRetrySeconds
		}
		return submitResponse{}, http.StatusServiceUnavailable, err.Error(), 0
	}
	s.nextSeq = seq
	s.jobs[id] = js
	if key != "" {
		s.idem[idemKey(tenant, key)] = id
	}
	s.jobsWG.Add(1)
	go s.await(js, tk)
	return submitResponse{ID: id, Status: StatusRunning}, http.StatusAccepted, "", 0
}

// noteStorageFailureLocked (mu held) records one admission-time
// storage failure and flips the server into degraded read-only mode
// when degradeAfter consecutive failures accumulate. In-flight
// jobs are untouched: the fleet keeps running them, progress keeps
// streaming, and their waiters still try to persist terminal records
// (logging, never crashing, on failure).
func (s *Server) noteStorageFailureLocked(err error) {
	s.storageErrors++
	s.admitFails++
	if s.admitFails >= degradeAfter && !s.degraded {
		s.degraded = true
		s.lastProbe = s.cfg.Now()
		s.cfg.Logf("serve: degraded read-only mode after %d consecutive storage failures: %v", s.admitFails, err)
	}
}

// tryRecoverLocked (mu held) probes the store — at most once per
// cfg.ProbeEvery — and clears degraded mode when a full atomic write
// round-trips. Recovery is automatic: the next submission after the
// disk heals both clears the mode and is admitted normally.
func (s *Server) tryRecoverLocked() bool {
	now := s.cfg.Now()
	if s.cfg.ProbeEvery > 0 {
		if now.Sub(s.lastProbe) < s.cfg.ProbeEvery {
			return false
		}
		s.lastProbe = now
	}
	if err := s.store.Probe(); err != nil {
		s.storageErrors++
		return false
	}
	s.degraded = false
	s.admitFails = 0
	s.cfg.Logf("serve: storage probe succeeded; leaving degraded mode")
	return true
}

// storageRetrySeconds is the Retry-After hint for storage-failure
// 503s: the probe interval, because that is the soonest a retry could
// find the server recovered.
func (s *Server) storageRetrySeconds() int {
	d := s.cfg.ProbeEvery
	if d <= 0 {
		d = time.Second
	}
	return retryAfterSeconds(d)
}

// replica assembles the fleet replica for a job. When sys is non-nil
// the replica resumes from it (remaining steps only); the returned int
// is the absolute step the replica starts at. The spec was validated
// at admission (and again at recovery), so the config build cannot
// fail.
func (s *Server) replica(js *jobState, sys *md.System[float64]) (fleet.Replica, int) {
	gcfg, err := js.rec.Spec.GuardConfig(s.store.CheckpointDir(js.rec.ID))
	if err != nil {
		// Validate() accepted this spec; reaching here is a programming
		// error, and panicking surfaces it in tests immediately.
		panic(fmt.Sprintf("serve: job %s: validated spec rejected: %v", js.rec.ID, err))
	}
	gcfg.OnSegment = js.progress.onSegment
	gcfg.FS = s.cfg.FS // job checkpoints live on the same (possibly chaotic) disk
	gcfg.Run.Faults = s.cfg.Faults
	rep := fleet.Replica{ID: jobSeqOf(js.rec.ID), Guard: gcfg, Steps: js.rec.Spec.Steps}
	from := 0
	if sys != nil {
		rep.InitialSystem = sys
		from = sys.Steps
		rep.Steps = js.rec.Spec.Steps - from
		if rep.Steps < 0 {
			rep.Steps = 0
		}
	}
	return rep, from
}

// CheckpointDirOf exposes a job's checkpoint directory — the seam the
// chaos campaign watches to decide when a crash lands mid-trajectory.
func (s *Server) CheckpointDirOf(id string) string { return s.store.CheckpointDir(id) }

// jobSeqOf is jobSeq for IDs the server itself minted.
func jobSeqOf(id string) int {
	n, _ := jobSeq(id)
	return n
}

// admitRecovered offers a recovered job to the fleet, retrying past
// transient overload: unlike a live client, a recovered job cannot be
// told 429 — it was already accepted, possibly in a previous process.
func (s *Server) admitRecovered(js *jobState, rep fleet.Replica) {
	delay := 10 * time.Millisecond
	for {
		tk, err := s.sched.Submit(s.runCtx, rep)
		if err == nil {
			s.await(js, tk)
			return
		}
		if errors.Is(err, fleet.ErrClosed) {
			// Shutdown before the job got back in: leave it incomplete on
			// disk (no terminal record), so the next start resumes it.
			s.jobsWG.Done()
			return
		}
		select {
		case <-s.runCtx.Done():
			s.jobsWG.Done()
			return
		case <-time.After(delay):
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// await is each admitted job's result waiter: it turns the fleet
// result into the durable terminal record — except when the job was
// cancelled by a forced drain, in which case nothing is written and
// the job stays incomplete on disk, which is exactly what makes the
// next start resume it.
func (s *Server) await(js *jobState, tk *fleet.Ticket) {
	defer s.jobsWG.Done()
	res := tk.Wait()
	defer s.tenants.release(js.rec.Tenant)

	if res.Err != nil && s.runCtx.Err() != nil &&
		(errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, fleet.ErrClosed)) {
		s.cfg.Logf("serve: job %s interrupted by drain; will resume on restart", js.rec.ID)
		return
	}

	rec := TerminalRecord{ID: js.rec.ID, Attempts: res.Attempts, Resumed: js.resumed}
	switch res.State {
	case fleet.Succeeded, fleet.Recovered:
		rec.Status = StatusDone
		rec.Summary = res.Summary
		if rec.Summary != nil {
			// A resumed job's guard summary covers only the remaining
			// steps; report the job's total trajectory length.
			rec.Summary.Steps = js.rec.Spec.Steps
		}
	default:
		rec.Status = StatusFailed
		if res.Err != nil {
			rec.Error = res.Err.Error()
		}
	}
	var incidents = res.Incidents
	if res.Report != nil {
		incidents.Merge(&res.Report.Counts)
	}
	if incidents.Total() > 0 {
		rec.Incidents = incidents.String()
	}
	if err := s.store.PutTerminal(rec); err != nil {
		// The run finished but its terminal record did not commit; the
		// in-memory state still serves clients, and a restart will
		// re-run from the last checkpoint — wasteful, never wrong.
		s.cfg.Logf("serve: job %s: persisting terminal record: %v", js.rec.ID, err)
	}
	s.mu.Lock()
	js.status = rec.Status
	js.terminal = &rec
	s.mu.Unlock()
	js.progress.close()
}

// Drain is graceful shutdown: stop admitting (submissions get 503),
// let in-flight jobs finish, persist their terminal records, and
// release the fleet. If ctx expires first, the remaining replicas are
// cancelled — they stop within one MD step, their waiters skip the
// terminal write, and the jobs resume from their latest checkpoints on
// the next start. Drain returns ctx.Err() in that case.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	err := s.sched.Drain(ctx)
	if err != nil {
		// Forced half: cancel every replica, then the (now fast)
		// teardown completes unconditionally.
		s.runCancel()
		// Cannot fail: with every replica cancelled and a background
		// context, this only waits for the (now immediate) teardown.
		_ = s.sched.Drain(context.Background())
	}
	s.jobsWG.Wait()
	s.runCancel()
	return err
}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// tenantOf extracts the tenant identity. Absent authentication
// infrastructure, the X-Tenant header is trusted; the default keeps
// single-user deployments working without headers.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeJSON writes a JSON response body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status line is already on the wire; an encode failure here is
	// a client disconnect, with no channel left to report it on.
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "serve: parsing spec: " + err.Error()})
		return
	}
	sp = sp.withDefaults()
	if err := sp.Validate(); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
		return
	}
	resp, code, errMsg, retryAfter := s.submit(tenantOf(r), r.Header.Get("Idempotency-Key"), sp)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
	}
	if errMsg != "" {
		writeJSON(w, code, apiError{Error: errMsg})
		return
	}
	writeJSON(w, code, resp)
}

// statusResponse is the GET /v1/jobs/{id} payload.
type statusResponse struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Status   string `json:"status"`
	Spec     Spec   `json:"spec"`
	Resumed  bool   `json:"resumed,omitempty"`
	Progress *Event `json:"progress,omitempty"`
	Error    string `json:"error,omitempty"`
}

// job looks up a job by the request's path ID.
func (s *Server) job(r *http.Request) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

// status snapshots a job's API view under the server lock.
func (s *Server) status(js *jobState) statusResponse {
	s.mu.Lock()
	resp := statusResponse{
		ID: js.rec.ID, Tenant: js.rec.Tenant, Status: js.status,
		Spec: js.rec.Spec, Resumed: js.resumed,
	}
	if js.terminal != nil {
		resp.Error = js.terminal.Error
	}
	s.mu.Unlock()
	if e, ok := js.progress.latest(); ok {
		resp.Progress = &e
	}
	return resp
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	js := s.job(r)
	if js == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "serve: no such job"})
		return
	}
	writeJSON(w, http.StatusOK, s.status(js))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*jobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		jobs = append(jobs, js)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].rec.ID < jobs[j].rec.ID })
	out := make([]statusResponse, len(jobs))
	for i, js := range jobs {
		out[i] = s.status(js)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	js := s.job(r)
	if js == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "serve: no such job"})
		return
	}
	s.mu.Lock()
	term := js.terminal
	s.mu.Unlock()
	if term == nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, apiError{Error: "serve: job not finished"})
		return
	}
	writeJSON(w, http.StatusOK, term)
}

// handleEvents streams the job's committed-segment observables as
// Server-Sent Events: the backlog first, then live events as segments
// commit, then one terminal "done" event carrying the final status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	js := s.job(r)
	if js == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "serve: no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "serve: streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	ctx := r.Context()
	idx := 0
	for {
		events, done, wake := js.progress.next(idx)
		for _, e := range events {
			b, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: segment\ndata: %s\n\n", b); err != nil {
				return // client went away
			}
		}
		idx += len(events)
		flusher.Flush()
		if done {
			s.mu.Lock()
			status := js.status
			s.mu.Unlock()
			if _, err := fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", status); err == nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-wake:
		}
	}
}

// statsResponse is the GET /v1/stats payload.
type statsResponse struct {
	Jobs     map[string]int `json:"jobs"` // status -> count
	Tenants  []TenantStat   `json:"tenants"`
	Shed     int64          `json:"shed"`
	Draining bool           `json:"draining"`
	// Degraded reports storage-failure read-only mode: existing jobs
	// keep running and streaming, new admissions get 503.
	Degraded bool `json:"degraded"`
	// StorageErrors counts admission-time storage failures and failed
	// recovery probes over the server's lifetime.
	StorageErrors int64 `json:"storage_errors,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := statsResponse{
		Jobs: make(map[string]int), Shed: s.shed, Draining: s.draining,
		Degraded: s.degraded, StorageErrors: s.storageErrors,
	}
	for _, js := range s.jobs {
		st.Jobs[js.status]++
	}
	s.mu.Unlock()
	st.Tenants = s.tenants.snapshot()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, degraded := s.draining, s.degraded
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining"})
		return
	}
	if degraded {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.storageRetrySeconds()))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "degraded: storage unavailable"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
