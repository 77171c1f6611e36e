package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Fixture package import paths for the module-pass (root-driven) cases.
const (
	puredetFixture  = "repro/internal/analysis/testdata/src/puredet/kernel"
	hotallocFixture = "repro/internal/analysis/testdata/src/hotalloc/kernel"
)

// TestFixtures runs each analyzer over its fixture package and checks
// the diagnostics against the "// want <rule>" markers in the fixture
// source: every marked line must be reported (once per listed rule),
// and nothing else may be. Suppressed cases in the fixtures carry
// //mdlint:ignore annotations and therefore must not surface.
func TestFixtures(t *testing.T) {
	cases := []struct {
		rule    string
		pattern string
		roots   []RootSpec // module-pass cases register fixture roots
	}{
		{"floatdet", "./testdata/src/floatdet", nil},
		{"rawrand", "./testdata/src/rawrand", nil},
		{"precision", "./testdata/src/precision/vec", nil},
		{"ctxloop", "./testdata/src/ctxloop/mdrun", nil},
		{"ctxloop", "./testdata/src/ctxloop/serve", nil},
		{"ctxloop", "./testdata/src/ctxloop/chaos", nil},
		{"closeerr", "./testdata/src/closeerr/guard", nil},
		{"closeerr", "./testdata/src/closeerr/serve", nil},
		{"closeerr", "./testdata/src/closeerr/chaos", nil},
		{"lockdisc", "./testdata/src/lockdisc/guard", nil},
		{"rawrand,floatdet", "./testdata/src/suppressedge", nil},
		{"puredet", "./testdata/src/puredet/kernel", []RootSpec{
			puredetFixture + ":CleanStep", puredetFixture + ":DirtyStep",
		}},
		{"hotalloc", "./testdata/src/hotalloc/kernel", []RootSpec{
			hotallocFixture + ":Forces",
		}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.rule, ",", "+"), func(t *testing.T) {
			azs, err := Select(tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			var opts *Options
			if tc.roots != nil {
				opts = &Options{Roots: tc.roots}
			}
			diags, stats, _, err := Certify(".", []string{tc.pattern}, azs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Packages != 1 || stats.Files == 0 {
				t.Fatalf("loaded %d packages / %d files, want 1 package with files", stats.Packages, stats.Files)
			}

			want := wantMarkers(t, tc.pattern)
			got := make(map[string]int)
			for _, d := range diags {
				if d.Rule == "ignore" {
					t.Errorf("fixture has a malformed suppression: %s", d)
					continue
				}
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Rule)]++
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("%s: got %d diagnostics, want %d", k, got[k], n)
				}
			}
			for k, n := range got {
				if want[k] == 0 {
					t.Errorf("unexpected diagnostic ×%d at %s", n, k)
				}
			}
		})
	}
}

// wantMarkers scans a fixture directory for "// want rule[ rule...]"
// markers and returns expected counts keyed by file:line:rule.
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	want := make(map[string]int)
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, marker, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(marker) {
				want[fmt.Sprintf("%s:%d:%s", filepath.Base(name), line, rule)]++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close() // read path; Scanner already surfaced any read error
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s has no want markers", dir)
	}
	return want
}

// TestSuppressionValidation checks that malformed //mdlint:ignore
// annotations surface under the pseudo-rule "ignore" — and that a
// well-formed one does not.
func TestSuppressionValidation(t *testing.T) {
	// Per-package rules only: with the default KernelRoots unresolvable
	// in a fixture package, puredet would (correctly) report registry
	// rot, which is not what this test is about.
	azs, err := Select("floatdet,precision,rawrand,ctxloop,closeerr,lockdisc")
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := Run(".", []string{"./testdata/src/badignore"}, azs)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		if d.Rule != "ignore" {
			t.Errorf("unexpected non-ignore diagnostic: %s", d)
			continue
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 3 {
		t.Fatalf("got %d ignore diagnostics (%q), want 3", len(msgs), msgs)
	}
	sort.Strings(msgs)
	for i, substr := range []string{"needs a reason", "unknown rule nosuchrule", "needs a rule name"} {
		if !strings.Contains(msgs[i], substr) {
			t.Errorf("diagnostic %d = %q, want it to mention %q", i, msgs[i], substr)
		}
	}
}

// TestSelect checks rule-list resolution.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("Select(\"\") = %d analyzers, %v; want the full registry", len(all), err)
	}
	two, err := Select("floatdet, closeerr")
	if err != nil || len(two) != 2 || two[0].Name != "floatdet" || two[1].Name != "closeerr" {
		t.Fatalf("Select(\"floatdet, closeerr\") = %v, %v", two, err)
	}
	if _, err := Select("nosuchrule"); err == nil {
		t.Fatal("Select(\"nosuchrule\") succeeded, want error")
	}
}

// TestAppliesTo checks the path-suffix scope matching.
func TestAppliesTo(t *testing.T) {
	a := &Analyzer{Scope: []string{"vec", "cmd/mdsim"}}
	for path, want := range map[string]bool{
		"repro/internal/vec":      true,
		"vec":                     true,
		"repro/cmd/mdsim":         true,
		"repro/internal/vecmath":  false,
		"repro/internal/gpu":      false,
		"repro/internal/approvec": false,
	} {
		if got := a.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	unscoped := &Analyzer{}
	if !unscoped.AppliesTo("anything/at/all") {
		t.Error("unscoped analyzer must apply everywhere")
	}
}

// TestLoadErrors checks that an unresolvable pattern is a load error,
// not a silent empty result.
func TestLoadErrors(t *testing.T) {
	if _, _, err := Run(".", []string{"./does/not/exist"}, Analyzers()); err == nil {
		t.Fatal("Run on a nonexistent pattern succeeded, want error")
	}
}

// TestGraphReachable checks the call-graph construction against the
// puredet fixture: edges through helpers, closure attribution, and the
// root cones the certificate reports.
func TestGraphReachable(t *testing.T) {
	ld, err := Load(".", "./testdata/src/puredet/kernel")
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(ld)

	clean := puredetFixture + ":CleanStep"
	dirty := puredetFixture + ":DirtyStep"
	pair := puredetFixture + ":pair"
	stamp := puredetFixture + ":stamp"
	for _, key := range []string{clean, dirty, pair, stamp} {
		if g.Nodes[key] == nil {
			t.Fatalf("graph has no node for %s; nodes: %v", key, len(g.Nodes))
		}
	}

	cone := g.Reachable([]string{clean})
	if cone[pair] == nil || cone[clean] == nil {
		t.Errorf("CleanStep cone misses pair/itself: %d nodes", len(cone))
	}
	if cone[stamp] != nil {
		t.Errorf("CleanStep cone must not contain stamp")
	}
	dirtyCone := g.Reachable([]string{dirty})
	if dirtyCone[stamp] == nil || dirtyCone[pair] == nil {
		t.Errorf("DirtyStep cone misses stamp/pair: %d nodes", len(dirtyCone))
	}

	dn := g.Nodes[dirty]
	if len(dn.Dynamic) == 0 {
		t.Error("DirtyStep's fn() call must be recorded as a dynamic site")
	}
	if len(dn.Spawns) != 1 {
		t.Errorf("DirtyStep has %d recorded spawns, want 1", len(dn.Spawns))
	}
}

// TestCertifyFixture checks root verdicts, violation capture, and the
// hotalloc ledger semantics (a suppressed site stays in the ledger).
func TestCertifyFixture(t *testing.T) {
	opts := &Options{Roots: []RootSpec{
		puredetFixture + ":CleanStep", puredetFixture + ":DirtyStep",
	}}
	_, _, cert, err := Certify(".", []string{"./testdata/src/puredet/kernel"}, Analyzers(), opts)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[string]string)
	for _, r := range cert.Roots {
		verdicts[r.Root] = r.Verdict
	}
	if v := verdicts[puredetFixture+":CleanStep"]; v != "certified" {
		t.Errorf("CleanStep verdict = %q, want certified", v)
	}
	if v := verdicts[puredetFixture+":DirtyStep"]; v != "uncertified" {
		t.Errorf("DirtyStep verdict = %q, want uncertified", v)
	}
	if cert.Certified() {
		t.Error("certificate with an uncertified root must not report Certified")
	}
	// The suppressed time.Now in stamp must still appear as a violation.
	var stampViolation bool
	for _, r := range cert.Roots {
		for _, v := range r.Violations {
			if strings.Contains(v, ":stamp:") || strings.Contains(v, "stamp: calls time.Now") {
				stampViolation = true
			}
		}
	}
	if !stampViolation {
		t.Error("suppressed wall-clock read in stamp missing from certificate violations")
	}

	// An unresolved root is a verdict, not a silent drop.
	opts.Roots = append(opts.Roots, RootSpec(puredetFixture+":NoSuchKernel"))
	diags, _, cert2, err := Certify(".", []string{"./testdata/src/puredet/kernel"}, Analyzers(), opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range cert2.Roots {
		if r.Root == puredetFixture+":NoSuchKernel" && r.Verdict == "unresolved" {
			found = true
		}
	}
	if !found {
		t.Error("missing root must get an unresolved verdict")
	}
	var rotDiag bool
	for _, d := range diags {
		if d.Rule == "puredet" && strings.Contains(d.Message, "NoSuchKernel") {
			rotDiag = true
		}
	}
	if !rotDiag {
		t.Error("registry rot must surface as a puredet diagnostic")
	}
}

// TestCertifyHotallocLedger checks that the annotated fixture site is
// absent from diagnostics but present in the ledger.
func TestCertifyHotallocLedger(t *testing.T) {
	opts := &Options{Roots: []RootSpec{hotallocFixture + ":Forces"}}
	diags, _, cert, err := Certify(".", []string{"./testdata/src/hotalloc/kernel"}, Analyzers(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, positive bool
	for _, s := range cert.Hotalloc.Sites {
		switch s.Func {
		case hotallocFixture + ":grow":
			suppressed = true
		case hotallocFixture + ":scratch":
			positive = true
		case hotallocFixture + ":Cold":
			t.Error("Cold is outside the hot cone and must not be ledgered")
		}
	}
	if !suppressed || !positive {
		t.Errorf("ledger = %+v, want both scratch (reported) and grow (suppressed) sites", cert.Hotalloc.Sites)
	}
	for _, d := range diags {
		if d.Rule == "hotalloc" && strings.Contains(d.Message, ":grow") {
			t.Errorf("suppressed site still reported: %s", d)
		}
	}
}

// TestCertificateDeterminism runs the same certification twice and
// demands byte-identical certificates.
func TestCertificateDeterminism(t *testing.T) {
	opts := &Options{Roots: []RootSpec{hotallocFixture + ":Forces"}}
	render := func() string {
		t.Helper()
		_, _, cert, err := Certify(".", []string{"./testdata/src/hotalloc/kernel"}, Analyzers(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := cert.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("certificate is not byte-deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestAllowlistRecording checks that an allowlist entry both silences
// the dynamic-site violation and lands in the certificate.
func TestAllowlistRecording(t *testing.T) {
	opts := &Options{
		Roots: []RootSpec{puredetFixture + ":DirtyStep"},
		Allow: []AllowRule{{
			Caller: puredetFixture + ":DirtyStep", Callee: "fn",
			Reason: "fixture: reviewed dynamic kernel argument",
		}},
	}
	diags, _, cert, err := Certify(".", []string{"./testdata/src/puredet/kernel"}, Analyzers(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Rule == "puredet" && strings.Contains(d.Message, "unresolved dynamic call fn") {
			t.Errorf("allowlisted dynamic site still reported: %s", d)
		}
	}
	found := false
	for _, e := range cert.Allowed {
		if e.Callee == "fn" && e.Caller == puredetFixture+":DirtyStep" &&
			e.Reason == "fixture: reviewed dynamic kernel argument" {
			found = true
		}
	}
	if !found {
		t.Errorf("used allowlist entry missing from certificate: %+v", cert.Allowed)
	}
}

// TestParseRoots checks the -roots override syntax.
func TestParseRoots(t *testing.T) {
	rs, err := ParseRoots("a/b:F, c/d:T.M ,")
	if err != nil || len(rs) != 2 || rs[0] != "a/b:F" || rs[1] != "c/d:T.M" {
		t.Fatalf("ParseRoots = %v, %v", rs, err)
	}
	if _, err := ParseRoots("no-colon-here"); err == nil {
		t.Fatal("ParseRoots without a colon succeeded, want error")
	}
	if _, err := ParseRoots(" ,  , "); err == nil {
		t.Fatal("ParseRoots with only separators succeeded, want error")
	}
}

// TestSuppressEdgeCases pins the parser corners the fixture files
// cannot express literally: trailing whitespace after the reason,
// multi-rule lists, the exact one-line-below coverage window, and
// space-after-comma rule lists (which are malformed, not silently
// partial). Blank lines keep the coverage windows from overlapping.
func TestSuppressEdgeCases(t *testing.T) {
	src := "package p\n" + // line 1
		"var a = 1 //mdlint:ignore floatdet reason with trailing spaces   \n" + // line 2
		"\n" + // line 3
		"var b = 2 //mdlint:ignore floatdet,closeerr one comment, two rules\n" + // line 4
		"\n" + // line 5
		"var c = 3 //mdlint:ignore floatdet, closeerr space after comma is malformed\n" // line 6
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "edge.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "p", Files: []*ast.File{f}}
	valid := map[string]bool{"floatdet": true, "closeerr": true}
	set, diags := suppressions(fset, pkg, valid)

	if !set.covers("floatdet", "edge.go", 2) {
		t.Error("trailing whitespace after the reason must not break the suppression")
	}
	if set.covers("closeerr", "edge.go", 2) {
		t.Error("single-rule suppression must not cover other rules")
	}
	// Window: the comment line and exactly one line below, never above.
	if !set.covers("floatdet", "edge.go", 3) {
		t.Error("suppression must cover the line below the comment")
	}
	if set.covers("floatdet", "edge.go", 1) {
		t.Error("suppression must not extend upward")
	}
	if !set.covers("floatdet", "edge.go", 4) || !set.covers("closeerr", "edge.go", 4) {
		t.Error("one comment naming two rules must cover both")
	}
	// Line 6: "floatdet" parses; " closeerr" (leading space from the
	// space-after-comma spelling) is an unknown rule and must be
	// reported, not silently accepted.
	if !set.covers("floatdet", "edge.go", 6) {
		t.Error("first rule of a malformed list still parses")
	}
	if set.covers("closeerr", "edge.go", 6) {
		t.Error("space-after-comma rule must not be silently accepted")
	}
	foundMalformed := false
	for _, d := range diags {
		if d.Rule == "ignore" && strings.Contains(d.Message, "unknown rule") {
			foundMalformed = true
		}
	}
	if !foundMalformed {
		t.Errorf("malformed rule list produced no ignore diagnostic: %v", diags)
	}
}
