// Package mdrun is a fixture for the ctxloop analyzer. Its import path
// ends in /mdrun, so it lands in the analyzer's run/scheduler scope.
// The diagnostic anchors on the for keyword of the offending loop.
package mdrun

import "context"

type system struct{}

func (s *system) Step()                          {}
func (s *system) Rebuild()                       {}
func (s *system) RunContext(ctx context.Context) {}
func (s *system) BuildSpan(lo, hi int)           {}

// runBlind steps the system but never observes a context: flagged.
func runBlind(ctx context.Context, sys *system, steps int) {
	for i := 0; i < steps; i++ { // want ctxloop
		sys.Step()
	}
}

// runChecked polls ctx.Err each iteration: compliant.
func runChecked(ctx context.Context, sys *system, steps int) error {
	for i := 0; i < steps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sys.Step()
	}
	return nil
}

// runSelect selects on ctx.Done: compliant.
func runSelect(ctx context.Context, sys *system) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
			sys.Step()
		}
	}
}

// runDelegated hands the context to the step call, delegating the check
// downward: compliant.
func runDelegated(ctx context.Context, sys *system, steps int) {
	for i := 0; i < steps; i++ {
		sys.RunContext(ctx)
	}
}

// buildBlind fills neighbor-list spans without ever observing a
// context: flagged (the parallel build's span loop is a stepper).
func buildBlind(ctx context.Context, sys *system, n int) {
	for at := 0; at < n; at += 1024 { // want ctxloop
		sys.BuildSpan(at, min(at+1024, n))
	}
}

// buildChecked polls ctx.Err before each span, like the real sharded
// build: compliant.
func buildChecked(ctx context.Context, sys *system, n int) {
	for at := 0; at < n; at += 1024 {
		if ctx.Err() != nil {
			return
		}
		sys.BuildSpan(at, min(at+1024, n))
	}
}

// spin calls no stepper: not a long-running loop, not flagged.
func spin(sys *system, n int) {
	for i := 0; i < n; i++ {
		sys.Rebuild()
	}
}

// runSuppressed carries the annotation on the line above the for
// keyword, so the finding must not surface.
func runSuppressed(sys *system, steps int) {
	//mdlint:ignore ctxloop fixture: proves suppression silences the finding
	for i := 0; i < steps; i++ {
		sys.Step()
	}
}
