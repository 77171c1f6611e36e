package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// checkGolden compares out with testdata/quick_<id>.txt, the stdout of
// `paperbench -quick -experiment <id>`: the modeled-device numbers are
// pinned byte for byte. Regenerate a file with
//
//	go run ./cmd/paperbench -quick -experiment <id> > cmd/paperbench/testdata/quick_<id>.txt
func checkGolden(t *testing.T, id, out string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "quick_"+id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("%s: output differs from testdata/quick_%s.txt\ngot:\n%s\nwant:\n%s", id, id, out, want)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, "fig99", false, true, false)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error names every id the tables accept.
	for _, r := range slices.Concat(artifacts, extensions) {
		if !strings.Contains(err.Error(), r.id) {
			t.Fatalf("error %q does not list %q", err, r.id)
		}
	}
}

func TestQuickFig5ProducesMonotoneTable(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig5", false, true, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 5", "original", "simd-accel", "cumulative speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestQuickCSVMode(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig5", true, true, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "variant,runtime,cumulative speedup") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "----") {
		t.Fatalf("CSV output contains table rule:\n%s", out)
	}
}

func TestExtensionExperimentsDispatch(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "xmt", false, true, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "XMT") {
		t.Fatalf("XMT table missing:\n%s", sb.String())
	}
	checkGolden(t, "xmt", sb.String())
}

func TestQuickBannerPrinted(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "fig5", false, true, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "quick smoke run") {
		t.Fatal("quick banner missing")
	}
}

func TestSizes(t *testing.T) {
	atoms, steps, sweep := sizes(false)
	if atoms != 2048 || steps != 10 || len(sweep) == 0 {
		t.Fatalf("full sizes: %d %d %v", atoms, steps, sweep)
	}
	qa, qs, qsweep := sizes(true)
	if qa >= atoms || qs >= steps || len(qsweep) == 0 {
		t.Fatalf("quick sizes not reduced: %d %d %v", qa, qs, qsweep)
	}
	// The quick sweep still reaches the L1 knee for fig9's shape.
	if qsweep[len(qsweep)-1] < 4096 {
		t.Fatalf("quick sweep %v does not reach the cache knee", qsweep)
	}
}

// TestAllExperimentsQuick drives every paper artifact end to end at
// quick sizes — the full pipeline including tables, bar charts, and
// series charts.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var sb strings.Builder
	if err := run(&sb, "all", false, true, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Figure 5", "Figure 6", "Table 1", "Figure 7", "Figure 8", "Figure 9",
		"simd-accel", "spawn fraction", "speedup vs Opteron",
		"GPU speedup", "partially multithreaded", "MTA",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in combined output", want)
		}
	}
	checkGolden(t, "all", out)
}

func TestRemainingExtensionsDispatch(t *testing.T) {
	for _, id := range []string{"gpugen", "mpp", "amortization"} {
		var sb strings.Builder
		if err := run(&sb, id, false, true, false); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(sb.String(), "Extension:") {
			t.Fatalf("%s produced no extension table", id)
		}
		checkGolden(t, id, sb.String())
	}
}
