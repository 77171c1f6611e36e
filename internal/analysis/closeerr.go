package analysis

import (
	"go/ast"
	"go/types"
)

// CloseErr flags dropped error results from Close/Sync/Flush/Write-
// family calls on the checkpoint and report I/O paths (fsys, whose
// WriteAtomic is the atomic-publish protocol, guard, report,
// cmd/mdsim, the serving layer's durable job store, and the chaos
// harness that audits them). The checkpoint protocol's whole guarantee — a reader only
// ever sees complete, CRC-valid files — is built from exactly these
// return values: a swallowed Close after buffered writes is a
// checkpoint that may not exist, reported as one that does.
//
// Only silently discarded results are flagged (a bare call statement,
// including defer/go). An explicit `_ = f.Close()` is a visible,
// reviewable decision and passes; writers that are documented never to
// fail (strings.Builder, bytes.Buffer) are exempt.
var CloseErr = &Analyzer{
	Name:  "closeerr",
	Doc:   "dropped Close/Sync/Flush/Write error on checkpoint or report I/O paths",
	Scope: []string{"fsys", "guard", "report", "cmd/mdsim", "cmd/mdlint", "serve", "cmd/mdserve", "chaos", "cmd/mdchaos"},
	Run:   runCloseErr,
}

// closeErrMethods is the flagged call-name family.
var closeErrMethods = map[string]bool{
	"Close": true, "Sync": true, "Flush": true,
	"Write": true, "WriteString": true, "WriteFrame": true,
	"WriteCheckpoint": true, "WriteJSON": true,
}

func runCloseErr(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = st.Call
			case *ast.GoStmt:
				call = st.Call
			}
			if call == nil {
				return true
			}
			name := calleeName(call)
			if !closeErrMethods[name] {
				return true
			}
			if !callReturnsError(p, call) {
				return true
			}
			if receiverNeverFails(p, call) {
				return true
			}
			p.Reportf(call.Pos(), "error from %s() dropped on a checkpoint/report I/O path: handle it, or discard explicitly (`_ =`) with an //mdlint:ignore closeerr <why> if it is genuinely best-effort", name)
			return true
		})
	}
}

// callReturnsError reports whether the call's (last) result is error.
func callReturnsError(p *Pass, call *ast.CallExpr) bool {
	t := p.TypeOf(call)
	switch rt := t.(type) {
	case *types.Tuple:
		return rt.Len() > 0 && isErrorType(rt.At(rt.Len()-1).Type())
	default:
		return t != nil && isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// receiverNeverFails exempts receivers whose Write-family methods are
// documented to always return a nil error.
func receiverNeverFails(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := p.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
