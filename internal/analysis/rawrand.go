package analysis

import (
	"go/ast"
	"strconv"
)

// RawRand flags any use of math/rand (v1 or v2) outside internal/xrand.
// The global functions share hidden state, so two call sites perturb
// each other's streams; even a locally-constructed Source is banned
// because nothing forces it to be seeded explicitly, and v2's automatic
// seeding is explicitly irreproducible. Every stream in this repository
// must come from internal/xrand so that initial conditions and Langevin
// noise replay bit-for-bit from a recorded seed — the property the
// device-validation and sibling-replica tests assert.
var RawRand = &Analyzer{
	Name: "rawrand",
	Doc:  "math/rand use outside internal/xrand (unseeded or global randomness)",
	Run:  runRawRand,
}

func runRawRand(p *Pass) {
	if p.Pkg.Path == "repro/internal/xrand" {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !isRandPath(path) {
				continue
			}
			p.Reportf(imp.Pos(), "import of %s: use the seeded internal/xrand streams so runs replay bit-for-bit", path)
		}
		// Flag each use site too: the import line alone is easy to lose
		// in a large diff, and per-site diagnostics make partial
		// migrations visible.
		inspectRandUses(p, f)
	}
}

// inspectRandUses reports every selector expression that resolves into
// a math/rand package.
func inspectRandUses(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := p.Pkg.Info.ObjectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil || !isRandPath(obj.Pkg().Path()) {
			return true
		}
		p.Reportf(sel.Pos(), "%s.%s: use the seeded internal/xrand streams so runs replay bit-for-bit", obj.Pkg().Name(), sel.Sel.Name)
		return false
	})
}

func isRandPath(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}
