package faults

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCloneIndependentCounters pins the per-replica semantics Clone
// exists for: each clone replays the same fault schedule from call 1,
// and firing one clone does not advance another's counters.
func TestCloneIndependentCounters(t *testing.T) {
	base := NewRegistry(7).Arm(Fault{
		Site: SiteForces, Kind: NaN, Trigger: Trigger{AtCall: 3},
	})
	a, b := base.Clone(), base.Clone()

	for i := 1; i <= 2; i++ {
		if f := a.Fire(SiteForces); f != nil {
			t.Fatalf("clone a fired early at call %d", i)
		}
	}
	if f := a.Fire(SiteForces); f == nil || f.Kind != NaN {
		t.Fatal("clone a did not fire at call 3")
	}
	// b's counter is untouched by a's calls.
	if b.Calls(SiteForces) != 0 {
		t.Fatalf("clone b counter %d, want 0", b.Calls(SiteForces))
	}
	for i := 1; i <= 2; i++ {
		b.Fire(SiteForces)
	}
	if f := b.Fire(SiteForces); f == nil {
		t.Fatal("clone b did not replay the schedule at its own call 3")
	}
	// The base registry is untouched by either clone.
	if base.Calls(SiteForces) != 0 || len(base.Events()) != 0 {
		t.Fatal("clones leaked calls into the base registry")
	}
	// Arming after cloning stays private to the armed registry.
	a.Arm(Fault{Site: SiteWorker, Kind: Panic, Trigger: Trigger{AtCall: 1}})
	if f := b.Fire(SiteWorker); f != nil {
		t.Fatal("fault armed on clone a fired on clone b")
	}
}

// TestRegistryConcurrentThresholdTrigger pins that one Registry shared
// by many goroutines (the documented global-numbering mode) loses no
// calls: a FromCall threshold near the end fires exactly the expected
// number of times across racing replicas.
func TestRegistryConcurrentThresholdTrigger(t *testing.T) {
	const (
		goroutines = 8
		calls      = 250
	)
	r := NewRegistry(1).Arm(Fault{
		Site: SiteWorker, Kind: Error, Trigger: Trigger{FromCall: goroutines*calls - 10},
	})
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				r.Fire(SiteWorker)
			}
		}()
	}
	wg.Wait()
	if got := r.Calls(SiteWorker); got != goroutines*calls {
		t.Fatalf("lost calls: %d, want %d", got, goroutines*calls)
	}
	if got := r.Fired(SiteWorker); got != 11 {
		t.Fatalf("fired %d, want 11 (FromCall n-10 over n calls)", got)
	}
}

// TestCloneDuringConcurrentFire pins Clone's safety against a live
// registry: the fleet clones a base registry per replica while other
// replicas are already firing. A Clone taken mid-storm must (a) not
// race the firing goroutines, (b) start with virgin counters and an
// empty event log regardless of when it was taken, and (c) replay the
// armed schedule from its own call 1 — and the base registry's
// counters must account for every concurrent Fire exactly.
func TestCloneDuringConcurrentFire(t *testing.T) {
	const (
		firers = 4
		calls  = 500
		clones = 200
	)
	base := NewRegistry(99).Arm(Fault{
		Site: SiteForces, Kind: NaN, Trigger: Trigger{AtCall: 3},
	})

	var wg sync.WaitGroup
	wg.Add(firers + 1)
	for g := 0; g < firers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				base.Fire(SiteForces)
			}
		}()
	}
	cloned := make(chan *Registry, clones)
	go func() {
		defer wg.Done()
		for i := 0; i < clones; i++ {
			cloned <- base.Clone()
		}
		close(cloned)
	}()
	wg.Wait()

	for c := range cloned {
		if got := c.Calls(SiteForces); got != 0 {
			t.Fatalf("mid-storm clone born with %d calls, want 0", got)
		}
		if got := len(c.Events()); got != 0 {
			t.Fatalf("mid-storm clone born with %d events, want 0", got)
		}
	}
	// The base accounted for every concurrent Fire; the AtCall: 3 fault
	// fired exactly once, on whichever goroutine made the third call.
	if got := base.Calls(SiteForces); got != firers*calls {
		t.Fatalf("base lost calls under concurrent Clone: %d, want %d", got, firers*calls)
	}
	if got := base.Fired(SiteForces); got != 1 {
		t.Fatalf("base fired %d times, want exactly 1 (AtCall trigger)", got)
	}
	// A mid-storm clone still replays the schedule from its own call 1.
	c := base.Clone()
	for i := 1; i <= 2; i++ {
		if f := c.Fire(SiteForces); f != nil {
			t.Fatalf("post-storm clone fired early at call %d", i)
		}
	}
	if f := c.Fire(SiteForces); f == nil || f.Kind != NaN {
		t.Fatal("post-storm clone did not replay the schedule at call 3")
	}
}

// TestWorkerFaultCtxDelayInterruptible pins that a Delay fault selects
// on the context instead of sleeping through it.
func TestWorkerFaultCtxDelayInterruptible(t *testing.T) {
	f := &Fault{Site: SiteWorker, Kind: Delay, Delay: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	err := f.WorkerFaultCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored the cancelled context")
	}
	// Background context: short delays still complete as plain sleeps.
	quick := &Fault{Site: SiteWorker, Kind: Delay, Delay: time.Millisecond}
	if err := quick.WorkerFaultCtx(context.Background()); err != nil {
		t.Fatalf("uninterrupted delay errored: %v", err)
	}
}
