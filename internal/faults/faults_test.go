package faults

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vec"
)

func TestNilInjectorNeverFires(t *testing.T) {
	if Fire(nil, SiteForces) != nil {
		t.Fatal("nil injector fired")
	}
}

func TestTriggerAtCall(t *testing.T) {
	r := NewRegistry(1).Arm(Fault{Site: SiteForces, Kind: NaN, Trigger: Trigger{AtCall: 3}})
	for call := 1; call <= 6; call++ {
		f := r.Fire(SiteForces)
		if (call == 3) != (f != nil) {
			t.Fatalf("call %d: fired=%v", call, f != nil)
		}
	}
	if r.Fired(SiteForces) != 1 || r.Calls(SiteForces) != 6 {
		t.Fatalf("fired=%d calls=%d", r.Fired(SiteForces), r.Calls(SiteForces))
	}
}

func TestTriggerFromCallIsPersistent(t *testing.T) {
	r := NewRegistry(1).Arm(Fault{Site: SiteWorker, Kind: Panic, Trigger: Trigger{FromCall: 4}})
	fired := 0
	for call := 1; call <= 10; call++ {
		if r.Fire(SiteWorker) != nil {
			fired++
			if call < 4 {
				t.Fatalf("fired early at call %d", call)
			}
		}
	}
	if fired != 7 {
		t.Fatalf("fired %d times, want 7", fired)
	}
}

func TestTriggerProbDeterministicPerSeed(t *testing.T) {
	pattern := func(seed uint64) string {
		r := NewRegistry(seed).Arm(Fault{Site: SiteForces, Kind: Error, Trigger: Trigger{Prob: 0.5}})
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if r.Fire(SiteForces) != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	a, b2 := pattern(42), pattern(42)
	if a != b2 {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b2)
	}
	if !strings.Contains(a, "1") || !strings.Contains(a, "0") {
		t.Fatalf("p=0.5 pattern degenerate: %s", a)
	}
	if pattern(43) == a {
		t.Fatal("different seeds produced identical pattern")
	}
}

func TestSitesAreIndependent(t *testing.T) {
	r := NewRegistry(1).Arm(Fault{Site: SiteForces, Kind: NaN, Trigger: Trigger{AtCall: 1}})
	if r.Fire(SiteWorker) != nil {
		t.Fatal("unarmed site fired")
	}
	if r.Fire(SiteForces) == nil {
		t.Fatal("armed site did not fire (counters must be per-site)")
	}
}

func TestEventsLog(t *testing.T) {
	r := NewRegistry(1).
		Arm(Fault{Site: SiteForces, Kind: NaN, Trigger: Trigger{AtCall: 2}}).
		Arm(Fault{Site: SiteWorker, Kind: Panic, Trigger: Trigger{AtCall: 1}})
	r.Fire(SiteForces)
	r.Fire(SiteForces)
	r.Fire(SiteWorker)
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %v", ev)
	}
	if ev[0] != (Event{Site: SiteForces, Kind: NaN, Call: 2}) {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1] != (Event{Site: SiteWorker, Kind: Panic, Call: 1}) {
		t.Fatalf("event 1 = %+v", ev[1])
	}
}

func TestRegistryConcurrentFire(t *testing.T) {
	r := NewRegistry(1).Arm(Fault{Site: SiteWorker, Kind: Error, Trigger: Trigger{FromCall: 1}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Fire(SiteWorker)
			}
		}()
	}
	wg.Wait()
	if r.Calls(SiteWorker) != 800 || r.Fired(SiteWorker) != 800 {
		t.Fatalf("calls=%d fired=%d", r.Calls(SiteWorker), r.Fired(SiteWorker))
	}
}

func TestPoisonAndCorrupt(t *testing.T) {
	if !math.IsNaN(Poison[float64](NaN)) {
		t.Fatal("NaN poison")
	}
	if !math.IsInf(Poison[float64](Inf), 1) {
		t.Fatal("Inf poison")
	}
	acc := make([]vec.V3[float64], 4)
	CorruptV3(NaN, acc)
	if !math.IsNaN(acc[0].X) {
		t.Fatal("CorruptV3 did not poison")
	}
	CorruptV3(Inf, []vec.V3[float64](nil)) // must not panic on empty
}

func TestWorkerFaultKinds(t *testing.T) {
	if err := (&Fault{Kind: Error}).WorkerFault(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Error kind: %v", err)
	}
	start := time.Now()
	if err := (&Fault{Kind: Delay, Delay: 5 * time.Millisecond}).WorkerFault(); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("Delay did not sleep")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Panic kind did not panic")
			}
		}()
		(&Fault{Kind: Panic}).WorkerFault()
	}()
	if err := (&Fault{Kind: NaN}).WorkerFault(); err != nil {
		t.Fatalf("value kind at worker site: %v", err)
	}
}

func TestFaultWriterError(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(1).Arm(Fault{Site: SiteTrajectory, Kind: Error, Trigger: Trigger{AtCall: 2}})
	w := NewWriter(&buf, r, SiteTrajectory)
	if _, err := w.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if _, err := w.Write([]byte("ok2")); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "okok2" {
		t.Fatalf("buffer = %q", buf.String())
	}
}

func TestFaultWriterShortWrite(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(1).Arm(Fault{Site: SiteTrajectory, Kind: ShortWrite, Trigger: Trigger{AtCall: 1}})
	w := NewWriter(&buf, r, SiteTrajectory)
	n, err := w.Write([]byte("12345678"))
	if err != nil || n != 4 {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	if buf.String() != "1234" {
		t.Fatalf("buffer = %q", buf.String())
	}
}

func TestNewWriterNilInjectorPassthrough(t *testing.T) {
	var buf bytes.Buffer
	if w := NewWriter(&buf, nil, SiteTrajectory); w != &buf {
		t.Fatal("nil injector must return the writer unchanged")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		NaN: "nan", Inf: "inf", Error: "error",
		ShortWrite: "shortwrite", Panic: "panic", Delay: "delay",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind stringer empty")
	}
}
