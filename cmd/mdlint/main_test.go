package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestSelfLint is the gate the repository ships under: the module's own
// production tree must lint clean.
func TestSelfLint(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("mdlint on the repository exited %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// scratchModule writes a throwaway module with a seeded floatdet
// violation (float accumulation across a map range) and returns its
// directory.
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("main.go", `package main

import "fmt"

func main() {
	m := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}
	var total float64
	for _, v := range m {
		total += v
	}
	fmt.Println(total)
}
`)
	return dir
}

// TestSeededViolation checks the CI contract end to end: a module with
// a map-range float accumulation must exit non-zero with a floatdet
// finding.
func TestSeededViolation(t *testing.T) {
	dir := scratchModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("mdlint on the seeded module exited %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "floatdet") || !strings.Contains(stdout.String(), "main.go:9") {
		t.Fatalf("expected a floatdet finding at main.go:9, got:\n%s", stdout.String())
	}
}

// TestJSONOutput checks that -json emits a parseable diagnostic array.
// The rule subset keeps the count exact: with every rule on, puredet
// would (correctly) add registry-rot findings for the repro kernel
// roots, which do not exist in a scratch module.
func TestJSONOutput(t *testing.T) {
	dir := scratchModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-json", "-rules", "floatdet", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 1 || diags[0].Rule != "floatdet" || diags[0].Line != 9 {
		t.Fatalf("diagnostics = %+v, want one floatdet finding at line 9", diags)
	}
}

// TestUsageErrors checks the exit-2 paths: unknown rule, unknown flag,
// unloadable pattern.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-rules", "nosuchrule", "./..."},
		{"-no-such-flag"},
		{"-C", "../..", "./does/not/exist"},
		{"-certify", "-rules", "floatdet", "./..."},
		{"-roots", "no-colon-here", "./..."},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
}

// TestCertifyGolden is the determinism-certificate gate: -certify over
// the repository must exit 0, reproduce the committed golden byte for
// byte, certify every registered kernel root, and carry a non-empty
// hot-path allocation ledger (the committed "before" baseline the
// SoA/arena refactor is measured against).
func TestCertifyGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "-certify", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("mdlint -certify exited %d, want 0\nstderr:\n%s", code, stderr.String())
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "DETERMINISM_CERT.json"))
	if err != nil {
		t.Fatalf("missing committed golden: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), golden) {
		t.Errorf("certificate drifted from DETERMINISM_CERT.json: regenerate with\n\tgo run ./cmd/mdlint -certify ./... > DETERMINISM_CERT.json\nand review the diff")
	}

	var cert analysis.Certificate
	if err := json.Unmarshal(stdout.Bytes(), &cert); err != nil {
		t.Fatalf("certificate is not valid JSON: %v", err)
	}
	if len(cert.Roots) != len(analysis.KernelRoots) {
		t.Errorf("certificate covers %d roots, registry has %d", len(cert.Roots), len(analysis.KernelRoots))
	}
	for _, r := range cert.Roots {
		if r.Verdict != "certified" {
			t.Errorf("root %s verdict %q, want certified (violations: %v)", r.Root, r.Verdict, r.Violations)
		}
	}
	if cert.Hotalloc.Count == 0 || cert.Hotalloc.Count != len(cert.Hotalloc.Sites) {
		t.Errorf("hotalloc baseline count = %d with %d sites; the per-step allocation ledger must be non-empty and self-consistent",
			cert.Hotalloc.Count, len(cert.Hotalloc.Sites))
	}
}

// TestCertifySeeded checks the failure side of certification end to
// end: a module whose kernel root reaches time.Now must exit 1 and
// carry an uncertified verdict in the emitted certificate.
func TestCertifySeeded(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("kernel.go", `package scratch

import "time"

// Step is the seeded kernel root; jitter smuggles in the wall clock.
func Step(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x * jitter()
	}
	return sum
}

func jitter() float64 { return float64(time.Now().Nanosecond()) }
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-certify", "-roots", "scratch:Step", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var cert analysis.Certificate
	if err := json.Unmarshal(stdout.Bytes(), &cert); err != nil {
		t.Fatalf("stdout is not a certificate: %v\n%s", err, stdout.String())
	}
	if len(cert.Roots) != 1 || cert.Roots[0].Verdict != "uncertified" {
		t.Fatalf("roots = %+v, want one uncertified root", cert.Roots)
	}
	if !strings.Contains(strings.Join(cert.Roots[0].Violations, "\n"), "time.Now") {
		t.Errorf("violations %v do not name time.Now", cert.Roots[0].Violations)
	}
	if !strings.Contains(stderr.String(), "puredet") {
		t.Errorf("diagnostics must go to stderr under -certify, got:\n%s", stderr.String())
	}
}

// TestSummary checks the -summary JSON and the per-rule text footer.
// -summary is the machine-readable record of what a lint run cost, so
// its package, file and wall-time fields must be filled in, not zero.
func TestSummary(t *testing.T) {
	dir := scratchModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-summary", "-rules", "floatdet", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var s struct {
		Packages    int            `json:"packages"`
		Files       int            `json:"files"`
		Diagnostics int            `json:"diagnostics"`
		PerRule     map[string]int `json:"per_rule"`
		WallSeconds float64        `json:"wall_seconds"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		t.Fatalf("-summary output is not JSON: %v\n%s", err, stdout.String())
	}
	if s.Diagnostics != 1 || s.PerRule["floatdet"] != 1 {
		t.Errorf("summary = %+v, want 1 floatdet diagnostic", s)
	}
	if s.Packages <= 0 || s.Files <= 0 || s.WallSeconds <= 0 {
		t.Errorf("summary = %+v, want positive packages, files and wall_seconds", s)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-rules", "floatdet", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "(floatdet 1)") {
		t.Errorf("text footer missing per-rule counts:\n%s", stderr.String())
	}
}

// TestList checks that every registered rule is listed.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d, want 0", code)
	}
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing rule %q:\n%s", a.Name, stdout.String())
		}
	}
}
