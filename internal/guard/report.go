package guard

import (
	"fmt"
	"strings"

	"repro/internal/mdrun"
	"repro/internal/sim"
)

// Event is one supervision incident with its context.
type Event struct {
	Step    int          // system step count when the event was logged
	Attempt int          // recovery attempt in flight (0 outside recovery)
	Kind    sim.Incident // incident class
	Detail  string       // human-readable description
}

// RunReport is the structured account of a supervised run: every
// incident, plus the aggregate counters dashboards and benches want.
type RunReport struct {
	Events []Event
	Counts sim.IncidentLog

	CheckpointsWritten int
	Rollbacks          int // recovery attempts actually performed

	// FinalMethod, FinalWorkers and FinalDt describe the configuration
	// the run ended on — FinalWorkers and FinalDt differ from the
	// requested ones iff escalation happened.
	FinalMethod  mdrun.ForceMethod
	FinalWorkers int
	FinalDt      float64

	Completed bool
}

// log appends an event and bumps its incident counter.
func (r *RunReport) log(step, attempt int, kind sim.Incident, detail string) {
	r.Events = append(r.Events, Event{Step: step, Attempt: attempt, Kind: kind, Detail: detail})
	r.Counts.Add(kind, 1)
}

// String renders a compact single-paragraph account.
func (r *RunReport) String() string {
	var b strings.Builder
	status := "gave up"
	if r.Completed {
		status = "completed"
	}
	fmt.Fprintf(&b, "%s: method %v workers %d dt %g, %d checkpoints, %d rollbacks",
		status, r.FinalMethod, r.FinalWorkers, r.FinalDt, r.CheckpointsWritten, r.Rollbacks)
	if s := r.Counts.String(); s != "" {
		fmt.Fprintf(&b, " [%s]", s)
	}
	return b.String()
}
