// Command paperbench regenerates every table and figure of the paper's
// evaluation section from the device models and prints the same rows
// the paper reports, as aligned tables (default) or CSV.
//
// Usage:
//
//	paperbench                 # everything at paper scale (2048 atoms, 10 steps)
//	paperbench -experiment fig5
//	paperbench -experiment table1 -csv
//	paperbench -quick          # reduced sizes for a fast smoke run
//
// Every run cross-validates each device's physics against the reference
// implementation before reporting its modeled time; a result that gets
// the physics wrong aborts the experiment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "artifact to regenerate: "+experimentIDs())
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		markdown   = flag.Bool("markdown", false, "emit markdown tables (for EXPERIMENTS.md)")
		quick      = flag.Bool("quick", false, "use reduced workload sizes (smoke run)")
		bars       = flag.Bool("bars", true, "render text bar charts beneath tables")
	)
	flag.Parse()
	if *markdown {
		emitMode = emitMarkdown
	} else if *csv {
		emitMode = emitCSV
	}
	if err := run(os.Stdout, *experiment, *csv || *markdown, *quick, *bars); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// sizes returns the experiment dimensions, reduced in quick mode. The
// quick sweep still reaches 4096 atoms so the Figure 9 cache bend is
// visible; the fixed-size experiments shrink below the scale where the
// paper's overhead-vs-compute ratios hold.
func sizes(quick bool) (atoms, steps int, sweep []int) {
	if quick {
		return 512, 4, []int{256, 1024, 4096}
	}
	return core.PaperAtoms, core.PaperSteps, core.PaperSweepNs
}

// runner is one experiment: its -experiment id and the function that
// prints it.
type runner struct {
	id string
	fn func(io.Writer, bool, bool, bool) error
}

// artifacts are the paper's own tables and figures, in the order
// -experiment all prints them.
var artifacts = []runner{
	{"fig5", fig5}, {"fig6", fig6}, {"table1", table1},
	{"fig7", fig7}, {"fig8", fig8}, {"fig9", fig9},
}

// extensions go beyond the paper's artifacts and run only when named.
var extensions = []runner{
	{"xmt", extXMT}, {"gpugen", extGPUGenerations},
	{"mpp", extMPP}, {"amortization", extAmortization},
}

// experimentIDs lists every -experiment value run accepts, built from
// the two tables so the flag help and the unknown-experiment error
// cannot drift from them.
func experimentIDs() string {
	ids := func(rs []runner) string {
		s := make([]string, len(rs))
		for i, r := range rs {
			s[i] = r.id
		}
		return strings.Join(s, "|")
	}
	return ids(artifacts) + "|all, or the extensions " + ids(extensions)
}

func run(w io.Writer, experiment string, csv, quick, bars bool) error {
	if quick {
		fmt.Fprintln(w, "[quick smoke run: reduced sizes; the paper's headline ratios hold at full scale (-quick=false)]")
	}
	if experiment != "all" {
		for _, r := range slices.Concat(artifacts, extensions) {
			if r.id == experiment {
				return r.fn(w, csv, quick, bars)
			}
		}
		return fmt.Errorf("unknown experiment %q (want %s)", experiment, experimentIDs())
	}
	for i, r := range artifacts {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := r.fn(w, csv, quick, bars); err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
	}
	return nil
}

// emitMode selects the table renderer for this process.
var emitMode = emitText

const (
	emitText = iota
	emitCSV
	emitMarkdown
)

func emit(w io.Writer, t *report.Table, plainSuppressed bool) error {
	switch {
	case plainSuppressed && emitMode == emitMarkdown:
		return t.RenderMarkdown(w)
	case plainSuppressed && emitMode == emitCSV:
		return t.RenderCSV(w)
	case plainSuppressed:
		// run() was called with csv=true programmatically (tests):
		// default to CSV for backward compatibility.
		return t.RenderCSV(w)
	default:
		return t.Render(w)
	}
}

func secs(s float64) string { return report.Seconds(s) }

func fig5(w io.Writer, csv, quick, bars bool) error {
	atoms, _, _ := sizes(quick)
	rows, err := core.Fig5(atoms)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 5: SIMD optimization of the SPE acceleration kernel (%d atoms, 1 SPE)", atoms),
		"variant", "runtime", "cumulative speedup")
	labels := make([]string, 0, len(rows))
	values := make([]float64, 0, len(rows))
	for _, r := range rows {
		t.AddRow(r.Variant, secs(r.Seconds), fmt.Sprintf("%.2fx", rows[0].Seconds/r.Seconds))
		labels = append(labels, r.Variant)
		values = append(values, r.Seconds)
	}
	if err := emit(w, t, csv); err != nil {
		return err
	}
	if bars && !csv {
		return report.BarChart(w, "", labels, values, 50)
	}
	return nil
}

func fig6(w io.Writer, csv, quick, bars bool) error {
	atoms, steps, _ := sizes(quick)
	rows, err := core.Fig6(atoms, steps)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 6: SPE launch overhead (%d atoms, %d steps)", atoms, steps),
		"configuration", "total runtime", "spawn overhead", "spawn fraction")
	labels := make([]string, 0, 2*len(rows))
	values := make([]float64, 0, 2*len(rows))
	for _, r := range rows {
		t.AddRow(r.Config, secs(r.Total), secs(r.Spawn), fmt.Sprintf("%.1f%%", 100*r.Spawn/r.Total))
		labels = append(labels, r.Config+" total", r.Config+" spawn")
		values = append(values, r.Total, r.Spawn)
	}
	if err := emit(w, t, csv); err != nil {
		return err
	}
	if bars && !csv {
		return report.BarChart(w, "", labels, values, 50)
	}
	return nil
}

func table1(w io.Writer, csv, quick, bars bool) error {
	atoms, steps, _ := sizes(quick)
	rows, err := core.Table1(atoms, steps)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Table 1: performance comparison of MD calculations (%d atoms, %d steps)", atoms, steps),
		"configuration", "runtime", "speedup vs Opteron")
	for _, r := range rows {
		t.AddRow(r.Config, secs(r.Seconds), fmt.Sprintf("%.2fx", r.SpeedupVsOpteron))
	}
	return emit(w, t, csv)
}

func fig7(w io.Writer, csv, quick, bars bool) error {
	_, steps, sweep := sizes(quick)
	if !quick {
		sweep = core.PaperSweepGPUNs
	}
	rows, err := core.Fig7(sweep, steps)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 7: GPU vs Opteron runtime (%d steps)", steps),
		"atoms", "Opteron", "GPU", "GPU speedup")
	var cpuPts, gpuPts []report.Point
	for _, r := range rows {
		t.AddRow(strconv.Itoa(r.N), secs(r.Opteron), secs(r.GPU), fmt.Sprintf("%.2fx", r.Opteron/r.GPU))
		lx := logN(r.N)
		cpuPts = append(cpuPts, report.Point{X: lx, Y: r.Opteron})
		gpuPts = append(gpuPts, report.Point{X: lx, Y: r.GPU})
	}
	if err := emit(w, t, csv); err != nil {
		return err
	}
	if bars && !csv {
		chart := report.NewSeriesChart("")
		chart.LogY = true
		chart.YLabel = "seconds; x: log2(atoms)"
		chart.Add("Opteron", cpuPts)
		chart.Add("GPU", gpuPts)
		return chart.Render(w)
	}
	return nil
}

// logN maps an atom count onto a log2 x coordinate for the charts.
func logN(n int) float64 {
	lx := 0.0
	for v := n; v > 1; v /= 2 {
		lx++
	}
	return lx
}

func fig8(w io.Writer, csv, quick, bars bool) error {
	_, steps, sweep := sizes(quick)
	rows, err := core.Fig8(sweep, steps)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 8: fully vs partially multithreaded MD kernel on the MTA-2 (%d steps)", steps),
		"atoms", "fully multithreaded", "partially multithreaded", "ratio")
	var fullPts, partPts []report.Point
	for _, r := range rows {
		t.AddRow(strconv.Itoa(r.N), secs(r.Fully), secs(r.Partially), fmt.Sprintf("%.1fx", r.Partially/r.Fully))
		lx := logN(r.N)
		fullPts = append(fullPts, report.Point{X: lx, Y: r.Fully})
		partPts = append(partPts, report.Point{X: lx, Y: r.Partially})
	}
	if err := emit(w, t, csv); err != nil {
		return err
	}
	if bars && !csv {
		chart := report.NewSeriesChart("")
		chart.LogY = true
		chart.YLabel = "seconds; x: log2(atoms)"
		chart.Add("fully multithreaded", fullPts)
		chart.Add("partially multithreaded", partPts)
		return chart.Render(w)
	}
	return nil
}

func fig9(w io.Writer, csv, quick, bars bool) error {
	_, steps, sweep := sizes(quick)
	rows, err := core.Fig9(sweep, steps)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 9: runtime increase relative to the %d-atom run (%d steps)", rows[0].N, steps),
		"atoms", "MTA", "Opteron")
	for _, r := range rows {
		t.AddRow(strconv.Itoa(r.N), fmt.Sprintf("%.1f", r.MTARel), fmt.Sprintf("%.1f", r.OpteronRel))
	}
	return emit(w, t, csv)
}
