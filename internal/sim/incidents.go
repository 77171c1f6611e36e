package sim

import (
	"fmt"
	"strings"
)

// Incident identifies a class of reliability event observed while
// supervising a run — the resilience counterpart of Op. The guard
// supervisor (internal/guard) tallies them in an IncidentLog so a run
// report can say not just *that* a run recovered but *what it survived*,
// the accounting the paper's 2007-era accelerators (no ECC on the
// GPU's device memory, SPE local stores without parity) entirely lack.
type Incident int

const (
	// IncidentNaN is a non-finite value (NaN/Inf) detected in the
	// dynamic state by the numerical-health watchdog.
	IncidentNaN Incident = iota
	// IncidentEnergyDrift is total-energy drift beyond the configured
	// NVE threshold.
	IncidentEnergyDrift
	// IncidentTempExplosion is an instantaneous temperature beyond the
	// configured multiple of the target.
	IncidentTempExplosion
	// IncidentRunError is a step error surfaced by the runner (worker
	// panic, injected fault, trajectory I/O failure).
	IncidentRunError
	// IncidentCheckpointWriteFail is a checkpoint that could not be
	// written (the supervisor continues on its in-memory snapshot).
	IncidentCheckpointWriteFail
	// IncidentRollback is a restoration of an earlier known-good state.
	IncidentRollback
	// IncidentRetry is a re-attempt of a failed segment (any rung).
	IncidentRetry
	// IncidentDtHalved is an escalation to the half-time-step rung.
	IncidentDtHalved
	// IncidentSerialFallback is an escalation to the serial force
	// kernel.
	IncidentSerialFallback
	// IncidentCancelled is a run stopped by context cancellation or
	// deadline expiry — deliberate, so never retried.
	IncidentCancelled
	// IncidentShed is a replica rejected at admission because the
	// batch scheduler's queue was full (load shedding).
	IncidentShed
	// IncidentReplicaPanic is a panic isolated at the replica boundary
	// by the batch scheduler.
	IncidentReplicaPanic
	// IncidentResubmit is a fleet-level re-submission of a whole
	// replica after a transient failure.
	IncidentResubmit

	// NumIncidents is the number of incident classes.
	NumIncidents
)

var incidentNames = [NumIncidents]string{
	"nan", "energy-drift", "temp-explosion", "run-error",
	"ckpt-write-fail",
	"rollback", "retry", "dt-halved", "serial-fallback",
	"cancelled", "shed", "replica-panic", "resubmit",
}

// String implements fmt.Stringer.
func (i Incident) String() string {
	if i < 0 || i >= NumIncidents {
		return fmt.Sprintf("Incident(%d)", int(i))
	}
	return incidentNames[i]
}

// IncidentLog accumulates incident counts for one supervised run. The
// zero value is an empty log ready to use. Like Ledger, it is not
// goroutine-safe; a supervisor owns one log.
type IncidentLog struct {
	counts [NumIncidents]int64
}

// Add records n incidents of class inc; it panics on negative n to
// surface accounting bugs early, mirroring Ledger.Add.
func (l *IncidentLog) Add(inc Incident, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative incident count %d for %v", n, inc))
	}
	l.counts[inc] += n
}

// Count returns the accumulated count for inc.
func (l *IncidentLog) Count(inc Incident) int64 { return l.counts[inc] }

// Total returns the total number of incidents of all classes.
func (l *IncidentLog) Total() int64 {
	var t int64
	for _, c := range l.counts {
		t += c
	}
	return t
}

// Merge adds other's counts into l.
func (l *IncidentLog) Merge(other *IncidentLog) {
	for i := range l.counts {
		l.counts[i] += other.counts[i]
	}
}

// String renders the non-zero counts in declaration order.
func (l *IncidentLog) String() string {
	var b strings.Builder
	for inc, n := range l.counts {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%v=%d", Incident(inc), n)
	}
	return b.String()
}
