package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/fsys"
)

// swapInjector is a fault injector whose inner registry can be swapped
// at runtime — nil means a healthy disk. It is how these tests break
// and later heal the storage under a live server.
type swapInjector struct {
	mu sync.Mutex
	in faults.Injector
}

func (s *swapInjector) Fire(site faults.Site) *faults.Fault {
	s.mu.Lock()
	in := s.in
	s.mu.Unlock()
	return faults.Fire(in, site)
}

func (s *swapInjector) set(in faults.Injector) {
	s.mu.Lock()
	s.in = in
	s.mu.Unlock()
}

// httpFront puts an httptest front end on an already-built server —
// for tests that need a non-default Config.
func httpFront(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// enospcEverywhere arms persistent ENOSPC on every write-path site —
// the full disk.
func enospcEverywhere() *faults.Registry {
	reg := faults.NewRegistry(1)
	for _, site := range []faults.Site{fsys.SiteCreate, fsys.SiteWrite, fsys.SiteSync, fsys.SiteRename, fsys.SiteMkdir} {
		reg.Arm(faults.Fault{Site: site, Kind: faults.ENOSPC, Trigger: faults.Trigger{FromCall: 1}})
	}
	return reg
}

// TestDegradedModeUnderPersistentENOSPC pins the graceful-degradation
// acceptance criterion end to end: under a full disk the server
// refuses new admissions with 503 + Retry-After, keeps the in-flight
// job running to completion, reports degraded via /healthz and
// /v1/stats, and auto-recovers as soon as writes succeed again.
func TestDegradedModeUnderPersistentENOSPC(t *testing.T) {
	disk := &swapInjector{}
	srv, err := NewServer(Config{
		DataDir:      t.TempDir(),
		Fleet:        fleet.Config{MaxInflight: 1, QueueDepth: 16, WorkerBudget: 1},
		Logf:         t.Logf,
		FS:           fsys.Faulty(fsys.OS, disk),
		DegradeAfter: 2,
		ProbeEvery:   -1, // probe on every submission: deterministic recovery
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, srv)
	hs := httpFront(t, srv)

	// A healthy admission first — this job must survive the disk dying.
	inflight, code, _ := submit(t, hs, "t1", "", testSpec(400))
	if code != http.StatusAccepted {
		t.Fatalf("healthy submit: code %d", code)
	}

	disk.set(enospcEverywhere())

	// First storage failure: 503 + Retry-After, not yet degraded.
	_, code, hdr := submit(t, hs, "t1", "", testSpec(20))
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("submit on full disk: code %d, Retry-After %q", code, hdr.Get("Retry-After"))
	}
	if degradedNow(t, hs) {
		t.Fatal("degraded after a single failure with DegradeAfter 2")
	}
	// Second consecutive failure crosses DegradeAfter.
	_, code, _ = submit(t, hs, "t1", "", testSpec(20))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("second submit: code %d", code)
	}
	if !degradedNow(t, hs) {
		t.Fatal("not degraded after DegradeAfter consecutive failures")
	}

	// /healthz reports it with a Retry-After hint.
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("healthz while degraded: code %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	// Degraded admissions are refused by the probe without burning
	// tenant quota.
	_, code, hdr = submit(t, hs, "t1", "", testSpec(20))
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("degraded submit: code %d, Retry-After %q", code, hdr.Get("Retry-After"))
	}

	// The in-flight job keeps running and completes despite the dead
	// disk (its checkpoint and terminal writes degrade to incidents).
	rec := awaitReport(t, hs, inflight.ID)
	if rec.Status != StatusDone {
		t.Fatalf("in-flight job under ENOSPC: status %q, err %q", rec.Status, rec.Error)
	}

	// Heal the disk: the very next submission probes, recovers, and is
	// admitted — automatically.
	disk.set(nil)
	sr, code, _ := submit(t, hs, "t1", "", testSpec(20))
	if code != http.StatusAccepted {
		t.Fatalf("submit after heal: code %d", code)
	}
	if degradedNow(t, hs) {
		t.Fatal("still degraded after successful recovery probe")
	}
	resp, err = hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after recovery: code %d", resp.StatusCode)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := awaitReport(t, hs, sr.ID); rec.Status != StatusDone {
		t.Fatalf("post-recovery job: status %q", rec.Status)
	}
}

// TestDegradedProbePacing pins the probe clock seam: with a long
// ProbeEvery, a degraded server does not probe again until the
// injected clock advances, even if the disk has already healed.
func TestDegradedProbePacing(t *testing.T) {
	disk := &swapInjector{}
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}
	srv, err := NewServer(Config{
		DataDir:      t.TempDir(),
		Fleet:        fleet.Config{MaxInflight: 1, QueueDepth: 16, WorkerBudget: 1},
		Logf:         t.Logf,
		FS:           fsys.Faulty(fsys.OS, disk),
		DegradeAfter: 1,
		ProbeEvery:   time.Hour,
		Now:          clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, srv)
	hs := httpFront(t, srv)

	disk.set(enospcEverywhere())
	if _, code, _ := submit(t, hs, "t1", "", testSpec(20)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit on full disk: code %d", code)
	}
	if !degradedNow(t, hs) {
		t.Fatal("DegradeAfter 1 must degrade on the first failure")
	}

	disk.set(nil) // disk heals, but the probe is paced out
	if _, code, _ := submit(t, hs, "t1", "", testSpec(20)); code != http.StatusServiceUnavailable {
		t.Fatalf("paced-out probe must still refuse: code %d", code)
	}

	nowMu.Lock()
	now = now.Add(2 * time.Hour)
	nowMu.Unlock()
	sr, code, _ := submit(t, hs, "t1", "", testSpec(20))
	if code != http.StatusAccepted {
		t.Fatalf("submit after clock advance: code %d", code)
	}
	if rec := awaitReport(t, hs, sr.ID); rec.Status != StatusDone {
		t.Fatalf("post-recovery job: status %q", rec.Status)
	}
}

// degradedNow reads /v1/stats and returns the degraded flag.
func degradedNow(t *testing.T, hs *httptest.Server) bool {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Degraded
}

// TestStoreRejectsSilentShortWrite pins the writeJSON hardening: a
// writer that drops half the bytes but reports success must fail the
// admission write (io.ErrShortWrite), and PutSpec must leave no
// half-persisted job directory behind for the recovery scan.
func TestStoreRejectsSilentShortWrite(t *testing.T) {
	reg := faults.NewRegistry(3)
	reg.Arm(faults.Fault{Site: fsys.SiteWrite, Kind: faults.ShortWrite, Trigger: faults.Trigger{AtCall: 1}})
	dir := t.TempDir()
	st, err := NewStore(dir, fsys.Faulty(fsys.OS, reg))
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{ID: JobID(1), Tenant: "t", Spec: testSpec(10).Normalized()}
	err = st.PutSpec(rec)
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("PutSpec under silent short write: err = %v, want ErrShortWrite", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "jobs", rec.ID)); !os.IsNotExist(serr) {
		t.Fatalf("half-persisted job dir left behind: %v", serr)
	}
	jobs, _, err := st.Scan()
	if err != nil || len(jobs) != 0 {
		t.Fatalf("Scan after failed admission: %d jobs, err %v", len(jobs), err)
	}
}

// TestScanPropagatesReadErrors pins the recovery-scan fix: a corrupt
// spec.json is skipped (nothing was promised under it), but a disk
// that refuses the read fails the scan loudly — a restart must never
// silently forget an acknowledged job.
func TestScanPropagatesReadErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := JobRecord{ID: JobID(1), Tenant: "t", Spec: testSpec(10).Normalized()}
	if err := st.PutSpec(good); err != nil {
		t.Fatal(err)
	}

	// Corrupt record: skipped, no error.
	torn := filepath.Join(dir, "jobs", JobID(2))
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, "spec.json"), []byte(`{"id":"job-0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, maxSeq, err := st.Scan()
	if err != nil {
		t.Fatalf("Scan with a corrupt record must succeed: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Record.ID != good.ID {
		t.Fatalf("Scan = %d jobs, want only %s", len(jobs), good.ID)
	}
	if maxSeq != 2 {
		t.Fatalf("maxSeq = %d, want 2 (corrupt dirs still reserve their sequence)", maxSeq)
	}

	// I/O error on the read: loud failure.
	reg := faults.NewRegistry(5)
	reg.Arm(faults.Fault{Site: fsys.SiteRead, Kind: faults.Error, Trigger: faults.Trigger{FromCall: 1}})
	bad, err := NewStore(dir, fsys.Faulty(fsys.OS, reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bad.Scan(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Scan over a refusing disk: err = %v, want the injected I/O error", err)
	}
}

// TestJobCheckpointRetentionBound pins the retention satellite: a job
// that checkpoints many times keeps exactly spec.keep_checkpoints
// files in its ckpt/ directory.
func TestJobCheckpointRetentionBound(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newTestServer(t, dir, TenantPolicy{})
	defer drainNow(t, srv)

	sp := testSpec(100) // checkpoints every 10 steps: ~11 writes incl. baseline
	sp.KeepCheckpoints = 2
	sr, code, _ := submit(t, hs, "t1", "", sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	rec := awaitReport(t, hs, sr.ID)
	if rec.Status != StatusDone {
		t.Fatalf("job: status %q, err %q", rec.Status, rec.Error)
	}
	ents, err := os.ReadDir(srv.store.CheckpointDir(sr.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("ckpt/ holds %d files %v, want exactly 2", len(ents), names)
	}
}

func TestSpecKeepCheckpointsValidation(t *testing.T) {
	sp := testSpec(10)
	sp.KeepCheckpoints = 65
	if err := sp.Normalized().Validate(); err == nil {
		t.Fatal("keep_checkpoints 65 must be rejected")
	}
	sp.KeepCheckpoints = 0
	norm := sp.Normalized()
	if norm.KeepCheckpoints != 3 {
		t.Fatalf("default keep_checkpoints = %d, want 3", norm.KeepCheckpoints)
	}
	if err := norm.Validate(); err != nil {
		t.Fatalf("normalized spec must validate: %v", err)
	}
}
