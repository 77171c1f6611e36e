// Command mdlint runs the project's static-analysis suite
// (internal/analysis) over the module: determinism, precision,
// randomness, cancellation, lock-discipline, and I/O-error invariants
// that the paper's cross-architecture validation story depends on.
//
// Usage:
//
//	mdlint ./...                      # lint the whole module
//	mdlint -rules floatdet,closeerr ./internal/...
//	mdlint -json ./...                # machine-readable findings
//	mdlint -summary ./...             # machine-readable run summary
//	mdlint -certify ./... > CERT.json # determinism certificate on stdout
//	mdlint -certify -roots repro/internal/md:System.Step ./...
//
// -certify forces the full rule set (a certificate produced by a rule
// subset would be vacuously green), writes the machine-readable
// determinism certificate to stdout, and moves diagnostics to stderr so
// the certificate bytes can be redirected or diffed directly against
// the committed golden (DETERMINISM_CERT.json).
//
// Exit status: 0 when clean, 1 when any diagnostic is reported (or,
// under -certify, when any kernel root fails to certify), 2 when the
// module fails to load (build error, unknown rule, bad flags) —
// suitable as a CI gate next to go vet.
//
// Suppress a finding with an in-source annotation carrying a reason:
//
//	sum += v //mdlint:ignore floatdet summed in sorted key order above
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON  = fs.Bool("json", false, "emit diagnostics as a JSON array")
		summary = fs.Bool("summary", false, "emit a JSON run summary (per-rule counts) instead of diagnostics")
		rules   = fs.String("rules", "", "comma-separated rule subset (default: all)")
		certify = fs.Bool("certify", false, "emit the determinism certificate to stdout (forces all rules; diagnostics go to stderr)")
		roots   = fs.String("roots", "", "comma-separated kernel-root override (importpath:Func[,importpath:Recv.Func...])")
		dir     = fs.String("C", ".", "run as if launched from this directory")
		list    = fs.Bool("list", false, "list the registered rules and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			scope := "all packages"
			if len(a.Scope) > 0 {
				scope = fmt.Sprintf("packages %v", a.Scope)
			}
			fmt.Fprintf(stdout, "%-10s %s (%s)\n", a.Name, a.Doc, scope)
		}
		return 0
	}

	if *certify && *rules != "" {
		fmt.Fprintln(stderr, "mdlint: -certify runs every rule; -rules would produce a partial certificate")
		return 2
	}
	selected, err := analysis.Select(*rules)
	if err != nil {
		fmt.Fprintln(stderr, "mdlint:", err)
		return 2
	}
	var opts analysis.Options
	if *roots != "" {
		rs, err := analysis.ParseRoots(*roots)
		if err != nil {
			fmt.Fprintln(stderr, "mdlint:", err)
			return 2
		}
		opts.Roots = rs
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	diags, stats, cert, err := analysis.Certify(*dir, patterns, selected, &opts)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "mdlint:", err)
		return 2
	}

	switch {
	case *certify:
		// Certificate to stdout, diagnostics to stderr: the stdout bytes
		// are exactly the golden file.
		for _, d := range diags {
			fmt.Fprintln(stderr, d)
		}
		if err := cert.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "mdlint:", err)
			return 2
		}
		if len(diags) > 0 || !cert.Certified() {
			return 1
		}
		return 0
	case *summary:
		if err := writeSummary(stdout, stats, wall); err != nil {
			fmt.Fprintln(stderr, "mdlint:", err)
			return 2
		}
	case *asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "mdlint:", err)
			return 2
		}
	default:
		cwd, _ := os.Getwd()
		for _, d := range diags {
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, d.File); err == nil && !filepath.IsAbs(rel) {
					d.File = rel
				}
			}
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stderr, "mdlint: %d packages, %d files, %d findings%s in %v\n",
			stats.Packages, stats.Files, stats.Diagnostics, perRuleSummary(stats), wall.Round(time.Millisecond))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// perRuleSummary renders " (floatdet 2, hotalloc 5)" for the text
// footer, sorted by rule name; empty when the run is clean.
func perRuleSummary(stats analysis.Stats) string {
	if len(stats.PerRule) == 0 {
		return ""
	}
	names := make([]string, 0, len(stats.PerRule))
	for name := range stats.PerRule {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %d", name, stats.PerRule[name]))
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

// runSummary is the -summary JSON shape.
type runSummary struct {
	Packages    int            `json:"packages"`
	Files       int            `json:"files"`
	Diagnostics int            `json:"diagnostics"`
	PerRule     map[string]int `json:"per_rule"`
	WallSeconds float64        `json:"wall_seconds"`
}

func writeSummary(w io.Writer, stats analysis.Stats, wall time.Duration) error {
	s := runSummary{
		Packages:    stats.Packages,
		Files:       stats.Files,
		Diagnostics: stats.Diagnostics,
		PerRule:     stats.PerRule,
		WallSeconds: wall.Seconds(),
	}
	if s.PerRule == nil {
		s.PerRule = map[string]int{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
