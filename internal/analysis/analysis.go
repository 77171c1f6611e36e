// Package analysis is the project's static-analysis framework: a
// stdlib-only (go/ast, go/parser, go/token, go/types) driver that loads
// every package in the module and runs project-specific analyzers over
// the typed syntax trees.
//
// The analyzers mechanically enforce the invariants the repository's
// correctness story rests on — and that, until now, only held because
// the current code happened to respect them:
//
//   - floatdet: no floating-point reduction may accumulate across a
//     map-range (unordered) iteration; summation order is part of the
//     bitwise-reproducibility contract the serial-path pinning tests
//     and the sibling-replica bitwise-equality tests rely on.
//   - precision: kernel packages must not change float width silently;
//     every float64↔float32 conversion is either one of the audited
//     widen-compute-narrow helpers or carries an annotation. This is
//     the paper's single-vs-double comparability requirement.
//   - rawrand: no math/rand — all randomness flows through the seeded,
//     replayable internal/xrand streams.
//   - ctxloop: long-running loops in the run/scheduler layers must
//     observe their context so cancellation lands within one MD step.
//   - closeerr: the checkpoint and report I/O paths must not drop
//     Close/Sync/Flush/Write errors — a checkpoint that silently failed
//     to persist is worse than none.
//
// Diagnostics are suppressible per line with
//
//	//mdlint:ignore <rule>[,<rule>...] <reason>
//
// where the reason is mandatory: a suppression is a reviewed decision,
// and the reviewer's argument travels with it. A suppression comment
// covers its own source line and the line directly below it, so it can
// sit either at the end of the offending line or on its own line above.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: a rule, a position, and a message.
type Diagnostic struct {
	Rule    string `json:"rule"`
	Package string `json:"package"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one named rule. Per-package rules set Run; whole-program
// rules set RunModule and receive the call graph, the certified hot
// set, and the certificate under construction.
type Analyzer struct {
	// Name is the rule name used in output and in //mdlint:ignore
	// comments.
	Name string

	// Doc is a one-line description.
	Doc string

	// Scope restricts the analyzer to packages whose import path ends
	// with one of these path suffixes (e.g. "vec", "cmd/mdsim"). Empty
	// means every package. Module analyzers ignore Scope: a whole-
	// program property has no per-package boundary.
	Scope []string

	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)

	// RunModule inspects the whole loaded module at once.
	RunModule func(*ModulePass)
}

// AppliesTo reports whether the analyzer runs on the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	// Graph is the module-wide call graph (nil only in hand-built
	// passes). Per-package rules may consult it; the driver uses it to
	// tag diagnostics that land inside the certified hot set.
	Graph *CallGraph

	report func(Diagnostic)
}

// ModulePass carries a whole-program analyzer's view of the module.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Loaded   *Loaded
	Graph    *CallGraph
	Roots    []RootSpec
	Allow    []AllowRule
	Hot      map[string]*FuncNode // union of the roots' reachable cones
	Cert     *Certificate

	report func(Diagnostic)
}

// Reportf records a module-level finding at pos inside pkg.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p := mp.Fset.Position(pos)
	mp.reportPkgAt(pkg, p.Filename, p.Line, p.Column, format, args...)
}

// ReportAt records a finding with no package attribution (registry
// rot, tool failures): file may be empty.
func (mp *ModulePass) ReportAt(file string, line, col int, format string, args ...any) {
	mp.report(Diagnostic{
		Rule: mp.Analyzer.Name, File: file, Line: line, Col: col,
		Message: fmt.Sprintf(format, args...),
	})
}

func (mp *ModulePass) reportPkgAt(pkg *Package, file string, line, col int, format string, args ...any) {
	d := Diagnostic{
		Rule: mp.Analyzer.Name, File: file, Line: line, Col: col,
		Message: fmt.Sprintf(format, args...),
	}
	if pkg != nil {
		d.Package = pkg.Path
	}
	mp.report(d)
}

// relPath renders a file path relative to the module dir with forward
// slashes — the stable form certificates commit.
func (mp *ModulePass) relPath(file string) string {
	if rel, err := filepath.Rel(mp.Loaded.Dir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Rule:    p.Analyzer.Name,
		Package: p.Pkg.Path,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Analyzers returns the full rule set in reporting order: the
// per-package rules first, then the whole-program passes.
func Analyzers() []*Analyzer {
	return []*Analyzer{FloatDet, Precision, RawRand, CtxLoop, CloseErr, LockDisc, PureDet, HotAlloc}
}

// Select resolves a comma-separated rule list ("" = all) against the
// registry.
func Select(rules string) ([]*Analyzer, error) {
	all := Analyzers()
	if rules == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Stats summarizes one driver run, for the benchmark trajectory record
// and the -summary output.
type Stats struct {
	Packages    int
	Files       int
	Diagnostics int
	PerRule     map[string]int
}

// Options tunes a driver run. The zero value means the defaults: the
// registered KernelRoots and the reviewed DynamicAllowlist.
type Options struct {
	// Roots overrides the kernel-root registry (the -roots flag).
	Roots []RootSpec
	// Allow overrides the dynamic-call-site allowlist.
	Allow []AllowRule
}

// Run loads the packages matching patterns (resolved relative to dir,
// exactly as the go tool would) and applies the analyzers. Returned
// diagnostics are suppression-filtered and sorted by file, line,
// column, and rule. Malformed //mdlint:ignore comments (missing reason,
// unknown rule) surface as diagnostics of the pseudo-rule "ignore".
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, Stats, error) {
	diags, stats, _, err := runAll(dir, patterns, analyzers, nil)
	return diags, stats, err
}

// Certify runs the analyzers and additionally returns the determinism
// certificate the whole-program passes assembled. The certificate is
// complete only when the analyzer list includes puredet (verdicts) and
// hotalloc (allocation ledger); `mdlint -certify` therefore forces the
// full rule set.
func Certify(dir string, patterns []string, analyzers []*Analyzer, opts *Options) ([]Diagnostic, Stats, *Certificate, error) {
	return runAll(dir, patterns, analyzers, opts)
}

// runAll is the shared driver pipeline: load, build the call graph,
// resolve roots into the hot set, then run per-package passes followed
// by module passes, with one module-wide suppression index filtering
// both.
func runAll(dir string, patterns []string, analyzers []*Analyzer, opts *Options) ([]Diagnostic, Stats, *Certificate, error) {
	ld, err := Load(dir, patterns...)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	graph := buildGraph(ld)

	roots := KernelRoots
	allow := DynamicAllowlist
	if opts != nil && opts.Roots != nil {
		roots = opts.Roots
	}
	if opts != nil && opts.Allow != nil {
		allow = opts.Allow
	}
	rootKeys := make([]string, len(roots))
	for i, r := range roots {
		rootKeys[i] = string(r)
	}
	hot := graph.Reachable(rootKeys)

	cert := &Certificate{Schema: certSchema, Module: ld.Module}
	for key := range hot {
		cert.Reachable = append(cert.Reachable, key)
	}

	valid := make(map[string]bool)
	for _, a := range Analyzers() {
		valid[a.Name] = true
	}
	// One module-wide suppression index: module passes report across
	// package boundaries, so per-package indexing is not enough.
	sup := make(suppressionSet)
	var diags []Diagnostic
	stats := Stats{Packages: len(ld.Pkgs), PerRule: make(map[string]int)}
	for _, pkg := range ld.Pkgs {
		stats.Files += len(pkg.Files)
		pkgSup, supDiags := suppressions(ld.Fset, pkg, valid)
		diags = append(diags, supDiags...)
		for file, byLine := range pkgSup {
			for line, rules := range byLine {
				for rule := range rules {
					if sup[file] == nil {
						sup[file] = make(map[int]map[string]bool)
					}
					if sup[file][line] == nil {
						sup[file][line] = make(map[string]bool)
					}
					sup[file][line][rule] = true
				}
			}
		}
	}

	hotDecls := hotDeclIndex(ld.Fset, hot)
	report := func(d Diagnostic) {
		if !sup.covers(d.Rule, d.File, d.Line) {
			diags = append(diags, d)
		}
	}

	// Per-package passes. Diagnostics landing inside a certified hot
	// declaration get the call-graph context appended: a float-width or
	// map-order finding inside a kernel cone is a determinism finding,
	// not a style nit.
	for _, pkg := range ld.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     ld.Fset,
				Pkg:      pkg,
				Graph:    graph,
				report: func(d Diagnostic) {
					if node := hotDeclAt(ld.Fset, hotDecls[d.File], d.Line); node != nil {
						d.Message += fmt.Sprintf(" [on the certified hot path: %s]", node.Key)
					}
					report(d)
				},
			}
			a.Run(pass)
		}
	}

	// Module passes see the whole program at once and write the
	// certificate as they go.
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     ld.Fset,
			Loaded:   ld,
			Graph:    graph,
			Roots:    roots,
			Allow:    allow,
			Hot:      hot,
			Cert:     cert,
			report:   report,
		}
		a.RunModule(mp)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	stats.Diagnostics = len(diags)
	for _, d := range diags {
		stats.PerRule[d.Rule]++
	}
	cert.normalize()
	return diags, stats, cert, nil
}

// hotDeclIndex maps file → hot declaration ranges, for tagging
// per-package diagnostics that land inside the certified hot set.
func hotDeclIndex(fset *token.FileSet, hot map[string]*FuncNode) map[string][]declRange {
	idx := make(map[string][]declRange)
	for _, node := range hot {
		file := fset.Position(node.Decl.Pos()).Filename
		idx[file] = append(idx[file], declRange{start: node.Decl.Pos(), end: node.Decl.End(), node: node})
	}
	return idx
}
