// Package faults is a deterministic, seedable fault injector for the
// run stack. Production-scale MD on accelerator-era hardware has to
// assume the fast path is the unreliable path — the paper's Cell and
// GPU ports trade ECC, precision, and OS supervision for throughput —
// so every recovery mechanism in this repository (worker panic
// isolation in internal/parallel, checkpoint CRC validation in
// internal/md, the watchdog/rollback supervisor in internal/guard) is
// testable only if faults can be injected on demand, reproducibly.
//
// The design is an interface plus a registry: instrumentation points
// name a Site and ask the Injector whether a fault fires on this call
// (faults.Fire is nil-safe, so the production default — no injector —
// costs one nil check). A Registry arms Faults at sites with Triggers
// that fire at a specific call number, from a call number onwards, or
// probabilistically from a seeded SplitMix64 stream, which makes every
// failure schedule replayable from (seed, armed faults) alone.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// Site names an instrumentation point that can fault. Sites are
// strings so downstream packages can add their own without touching
// this package; the constants below are the sites the run stack wires.
type Site string

const (
	// SiteForces corrupts the force array after a (any-method) force
	// evaluation in mdrun — the generic "silent accelerator bit-rot"
	// fault that hits serial and parallel paths alike.
	SiteForces Site = "forces"
	// SiteParallelForces corrupts the output of a parallel.Engine
	// kernel only. Falling back to a serial method clears it, which is
	// what lets tests exercise the supervisor's escalation ladder.
	SiteParallelForces Site = "parallel-forces"
	// SiteWorker fires inside a parallel.Engine pool worker: Panic and
	// Delay model a crashed or straggling worker thread.
	SiteWorker Site = "worker"
	// SiteTrajectory fails trajectory writes (wrap the writer with
	// NewWriter).
	SiteTrajectory Site = "trajectory"
	// Checkpoint and job-record writes have no site here: they fault
	// at the disk seam, internal/fsys's Faulty wrapper and its fs-*
	// sites.
)

// Kind enumerates what an injected fault does when it fires.
type Kind int

const (
	// NaN poisons a value-corruption site with quiet NaNs.
	NaN Kind = iota
	// Inf poisons a value-corruption site with +Inf.
	Inf
	// Error makes the site return ErrInjected.
	Error
	// ShortWrite makes a wrapped writer write only half the buffer and
	// report the short count with a nil error (the silent-truncation
	// shape that checkpoint CRC trailers exist to catch).
	ShortWrite
	// Panic panics at the site (pool workers convert it to an error).
	Panic
	// Delay sleeps Fault.Delay at the site (straggler injection).
	Delay
	// ENOSPC makes the site fail with an error wrapping syscall.ENOSPC
	// after accepting half the buffer — the disk-full shape, which is
	// loud (unlike ShortWrite) but leaves a torn temp file behind.
	ENOSPC
	// TornRename models power loss mid-publish at a rename site: the
	// destination receives only the first half of the source, the
	// source is gone, and the call fails. The caller sees the failure
	// (nothing is acknowledged on it), but the directory now holds a
	// torn file that every later reader must reject, not trust.
	TornRename
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NaN:
		return "nan"
	case Inf:
		return "inf"
	case Error:
		return "error"
	case ShortWrite:
		return "shortwrite"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case ENOSPC:
		return "enospc"
	case TornRename:
		return "tornrename"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps the String() names back to Kinds — the vocabulary of
// mdsim -inject and of chaos schedule files.
func ParseKind(s string) (Kind, error) {
	for k := NaN; k <= TornRename; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q", s)
}

// ErrInjected is the sentinel error injected faults surface.
var ErrInjected = errors.New("faults: injected failure")

// Trigger decides on which calls at a site an armed fault fires. The
// zero Trigger never fires. Calls are numbered from 1 per site.
type Trigger struct {
	// AtCall fires on exactly the k-th call.
	AtCall int
	// FromCall fires on every call numbered >= k (persistent fault).
	FromCall int
	// Prob fires independently per call with this probability, drawn
	// from the registry's seeded deterministic stream.
	Prob float64
}

func (t Trigger) fires(call int, rng *xrand.Source) bool {
	if t.AtCall > 0 && call == t.AtCall {
		return true
	}
	if t.FromCall > 0 && call >= t.FromCall {
		return true
	}
	if t.Prob > 0 && rng.Float64() < t.Prob {
		return true
	}
	return false
}

// Fault is one armed fault: what happens (Kind), where (Site), when
// (Trigger), and how long for Delay faults.
type Fault struct {
	Site    Site
	Kind    Kind
	Trigger Trigger
	Delay   time.Duration
}

// Injector decides, per call at a site, whether a fault fires. A nil
// Injector (queried through the package-level Fire) never fires —
// that is the production default.
type Injector interface {
	// Fire counts one call at site and returns the fault that fires on
	// it, or nil.
	Fire(site Site) *Fault
}

// Event records one fired fault, for test assertions and run reports.
type Event struct {
	Site Site
	Kind Kind
	Call int // 1-based call number at the site
}

// Registry is the standard Injector: a set of armed faults with
// per-site call counters and a seeded random stream for probabilistic
// triggers. Safe for concurrent use (pool workers fire concurrently).
//
// Sharing semantics: the counters are per-Registry, not per-run. A
// Registry shared by several concurrent replicas is data-race free,
// but its call numbering is global — an AtCall(25) trigger fires in
// whichever replica happens to make the 25th call overall, and under
// concurrency that replica is nondeterministic. Batch schedulers that
// want "call 25 of replica K" semantics must give each replica its own
// Registry; Clone exists for exactly that.
type Registry struct {
	mu     sync.Mutex
	seed   uint64
	rng    *xrand.Source
	calls  map[Site]int
	armed  map[Site][]*Fault
	events []Event
}

// NewRegistry returns an empty registry whose probabilistic triggers
// draw from a SplitMix64 stream seeded with seed.
func NewRegistry(seed uint64) *Registry {
	return &Registry{
		seed:  seed,
		rng:   xrand.New(seed),
		calls: make(map[Site]int),
		armed: make(map[Site][]*Fault),
	}
}

// Arm registers a fault. Multiple faults may share a site; the first
// (in arming order) whose trigger matches a call fires.
func (r *Registry) Arm(f Fault) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	fc := f
	r.armed[f.Site] = append(r.armed[f.Site], &fc)
	return r
}

// Clone returns an independent Registry with the same armed faults and
// the same probabilistic-trigger seed but fresh call counters and an
// empty event log — one per replica is what makes an injected fault
// schedule deterministic within a batch. The armed Faults are copied,
// so arming more faults on either registry does not affect the other.
func (r *Registry) Clone() *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := NewRegistry(r.seed)
	for _, fs := range r.armed {
		for _, f := range fs {
			fc := *f
			c.armed[fc.Site] = append(c.armed[fc.Site], &fc)
		}
	}
	return c
}

// RegistrySnapshot is a point-in-time export of a Registry: the exact
// armed schedule (what a replay needs), how far each site's call
// counter has advanced, and what actually fired. A chaos campaign
// prints this for a failing run so the reproducer is the armed
// schedule itself, not a guess at it.
type RegistrySnapshot struct {
	Seed   uint64
	Armed  []Fault // sites in sorted order, arming order within a site
	Calls  map[Site]int
	Events []Event
}

// Snapshot exports the registry's state. The armed faults are listed
// site-sorted (arming order preserved within a site), so two
// registries armed with the same schedule snapshot identically
// regardless of map iteration order.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	sites := make([]Site, 0, len(r.armed))
	for s := range r.armed {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	snap := RegistrySnapshot{
		Seed:   r.seed,
		Calls:  make(map[Site]int, len(r.calls)),
		Events: append([]Event(nil), r.events...),
	}
	for _, s := range sites {
		for _, f := range r.armed[s] {
			snap.Armed = append(snap.Armed, *f)
		}
	}
	for s, n := range r.calls {
		snap.Calls[s] = n
	}
	return snap
}

// Fire implements Injector.
func (r *Registry) Fire(site Site) *Fault {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls[site]++
	call := r.calls[site]
	for _, f := range r.armed[site] {
		if f.Trigger.fires(call, r.rng) {
			r.events = append(r.events, Event{Site: site, Kind: f.Kind, Call: call})
			return f
		}
	}
	return nil
}

// Calls returns how many times site has been queried.
func (r *Registry) Calls(site Site) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[site]
}

// Events returns a copy of the fired-fault log, in firing order.
func (r *Registry) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Fired returns how many faults have fired at site.
func (r *Registry) Fired(site Site) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Site == site {
			n++
		}
	}
	return n
}

// Fire is the nil-safe query instrumentation points use: a nil
// injector never fires, so the production cost is one comparison.
func Fire(in Injector, site Site) *Fault {
	if in == nil {
		return nil
	}
	return in.Fire(site)
}

// Poison returns the poison value for a value-corruption kind: NaN for
// NaN, +Inf for Inf (and for any other kind, which keeps misuse
// detectable by the watchdog rather than silent).
func Poison[T vec.Float](k Kind) T {
	if k == NaN {
		return T(math.NaN())
	}
	return T(math.Inf(1))
}

// CorruptV3 poisons the X component of the first element of a vector
// array in place — a single flipped lane, the minimal corruption an
// on-line validity scan must still catch. No-op on empty arrays.
func CorruptV3[T vec.Float](k Kind, arr []vec.V3[T]) {
	if len(arr) == 0 {
		return
	}
	arr[0].X = Poison[T](k)
}

// CorruptPlane poisons the first element of one SoA component plane in
// place — the same single-lane corruption CorruptV3 applies to an AoS
// array, for kernels whose output lives in separate component planes.
// No-op on empty planes.
func CorruptPlane[T vec.Float](k Kind, plane []T) {
	if len(plane) == 0 {
		return
	}
	plane[0] = Poison[T](k)
}

// WorkerFault executes a worker-site fault on the calling goroutine:
// Delay sleeps, Panic panics (the pool recovers it into an error),
// Error returns ErrInjected, and value-corruption kinds are no-ops
// (workers own no output of their own to poison).
func (f *Fault) WorkerFault() error { return f.WorkerFaultCtx(context.Background()) }

// WorkerFaultCtx is WorkerFault with an interruptible Delay: a
// cancelled context cuts the injected straggler sleep short and
// surfaces the context error, so a replica deadline bounds even a
// fault-delayed worker.
func (f *Fault) WorkerFaultCtx(ctx context.Context) error {
	switch f.Kind {
	case Delay:
		t := time.NewTimer(f.Delay)
		defer t.Stop() //mdlint:ignore hotalloc inlined Timer.Stop panic string; exists only while an injected Delay fault is active
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case Panic:
		panic(fmt.Sprintf("faults: injected worker panic (site %s)", f.Site)) //mdlint:ignore hotalloc injected-panic path: fires once when the seeded fault triggers, never on a clean run
	case Error:
		return fmt.Errorf("worker: %w", ErrInjected)
	default:
		return nil
	}
}

// NewWriter wraps w so that every Write first consults the injector at
// site: Error faults fail the write, ShortWrite faults write half the
// buffer and report the short count with a nil error (exactly the
// lying-writer failure a CRC trailer catches), Panic faults panic, and
// Delay faults sleep before writing. A nil injector returns w itself.
func NewWriter(w io.Writer, in Injector, site Site) io.Writer {
	if in == nil {
		return w
	}
	return &faultWriter{w: w, in: in, site: site}
}

type faultWriter struct {
	w    io.Writer
	in   Injector
	site Site
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	f := Fire(fw.in, fw.site)
	if f == nil {
		return fw.w.Write(p)
	}
	switch f.Kind {
	case Error:
		return 0, fmt.Errorf("write %s: %w", fw.site, ErrInjected)
	case ENOSPC:
		n, _ := fw.w.Write(p[:len(p)/2])
		return n, fmt.Errorf("write %s: %w", fw.site, syscall.ENOSPC)
	case ShortWrite:
		n, err := fw.w.Write(p[:len(p)/2])
		return n, err
	case Panic:
		panic(fmt.Sprintf("faults: injected write panic (site %s)", fw.site))
	case Delay:
		time.Sleep(f.Delay)
	}
	return fw.w.Write(p)
}
