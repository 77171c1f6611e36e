package analysis

import (
	"go/ast"
	"go/token"
)

// CtxLoop flags long-running loops in the run, scheduling, serving,
// and chaos layers — mdrun, parallel, guard, fleet, serve,
// cmd/mdserve, chaos, cmd/mdchaos — that drive step, worker, or
// backoff functions without ever observing a context. The repository's
// cancellation contract (PR 3) is that a cancelled run stops within one
// MD step: deadlines propagate from the fleet scheduler through
// guard.RunContext and mdrun.RunContext into the parallel worker pool.
// A loop that steps the simulation but never consults ctx is a hole in
// that chain; it turns a per-replica timeout into a wish.
//
// A loop complies when its body (closures excluded) checks ctx.Err(),
// selects on ctx.Done(), or passes a context.Context into a call — the
// last because handing the context to the step function is exactly how
// the check is delegated downward.
var CtxLoop = &Analyzer{
	Name:  "ctxloop",
	Doc:   "stepping loop without a cancellation check in run/scheduler packages",
	Scope: []string{"mdrun", "parallel", "guard", "fleet", "serve", "cmd/mdserve", "chaos", "cmd/mdchaos"},
	Run:   runCtxLoop,
}

// ctxSteppers names the functions whose presence marks a loop as
// long-running: MD step drivers, run entry points, kernel evaluations,
// and the sleep/backoff/waiting primitives of the retry machinery.
var ctxSteppers = map[string]bool{
	"Step": true, "StepWith": true, "StepWithE": true,
	"Run": true, "RunContext": true,
	"ForcesDirect": true, "ForcesPairlist": true,
	"BuildPairlist": true, "BuildRow": true,
	"Sleep": true, "Submit": true, "Wait": true,
	"attempt": true, "backoff": true,
}

func runCtxLoop(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var pos token.Pos
			switch loop := n.(type) {
			case *ast.ForStmt:
				body, pos = loop.Body, loop.For
			case *ast.RangeStmt:
				body, pos = loop.Body, loop.For
			default:
				return true
			}
			stepper := firstStepperCall(body)
			if stepper == "" {
				return true
			}
			if loopObservesContext(p, body) {
				return true
			}
			p.Reportf(pos, "loop calls %s but never observes a context: check ctx.Err(), select on ctx.Done(), or pass ctx into the call so cancellation lands within one step", stepper)
			return true
		})
	}
}

// firstStepperCall returns the name of the first step/worker/backoff
// call in the loop body (closures excluded), or "".
func firstStepperCall(body *ast.BlockStmt) string {
	name := ""
	inspectSkipFuncLit(body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if cn := calleeName(call); ctxSteppers[cn] {
				name = cn
			}
		}
		return true
	})
	return name
}

// loopObservesContext reports whether the loop body consults a context:
// ctx.Err()/ctx.Done() on a context.Context receiver, or any call
// taking a context.Context argument.
func loopObservesContext(p *Pass, body *ast.BlockStmt) bool {
	observed := false
	inspectSkipFuncLit(body, func(n ast.Node) bool {
		if observed {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextType(p.TypeOf(sel.X)) {
				observed = true
				return false
			}
		}
		for _, arg := range call.Args {
			if t := p.TypeOf(arg); t != nil && isContextType(t) {
				observed = true
				return false
			}
		}
		return true
	})
	return observed
}
