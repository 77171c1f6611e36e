package main

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mpp"
	"repro/internal/mta"
	"repro/internal/report"
)

// Extension experiments beyond the paper's own artifacts: the XMT
// projection its conclusion anticipates, the GPU pipeline generations,
// the MPP scaling motivation and the Cell launch amortization. Run
// explicitly by id, e.g.
//
//	paperbench -experiment xmt
//
// They are excluded from -experiment all, which regenerates exactly
// the paper's tables and figures.

func extXMT(w io.Writer, csv, quick, bars bool) error {
	t := report.NewTable(
		"Extension: Cray XMT projection (paper section 6: \"We anticipate significant performance gains from the upcoming XMT\")",
		"processors", "locality", "modeled speedup vs one MTA-2 processor")
	// Memory-op fraction of the MD force loop's instruction mix.
	const memFrac = 0.12
	for _, procs := range []int{1, 4, 64, 1024, 8000} {
		for _, locality := range []float64{1.0, 0.8, 0.0} {
			s, err := mta.XMTProjection(memFrac, procs, locality)
			if err != nil {
				return err
			}
			t.AddRow(strconv.Itoa(procs), fmt.Sprintf("%.0f%%", 100*locality), fmt.Sprintf("%.1fx", s))
		}
	}
	if err := emit(w, t, csv); err != nil {
		return err
	}
	if !csv {
		fmt.Fprintln(w, "locality is the new variable the MTA-2 never had: at poor locality the")
		fmt.Fprintln(w, "blended memory latency exceeds what 128 streams can hide (section 3.3's warning).")
	}
	return nil
}

// extGPUGenerations sweeps GPU pipeline counts across the hardware
// generations the paper describes ("16 parallel pixel pipelines ... the
// next generation from NVIDIA contained 24 pipelines, and that number
// is growing"), measuring the MD kernel at the paper's 2048 atoms.
func extGPUGenerations(w io.Writer, csv, quick, bars bool) error {
	atoms := 2048
	steps := 10
	if quick {
		atoms, steps = 512, 4
	}
	wk, err := core.StandardWorkload(atoms, steps)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: GPU generations (%d atoms, %d steps; section 3.2's growing pipeline counts)", atoms, steps),
		"pipelines", "generation", "modeled runtime", "compute share")
	for _, gen := range []struct {
		pipes int
		name  string
	}{
		{16, "GeForce 6800 (Figure 2)"},
		{24, "GeForce 7900GTX (measured part)"},
		{48, "projected"},
		{128, "projected (unified shaders)"},
	} {
		cfg := gpu.DefaultConfig()
		cfg.Pipelines = gen.pipes
		dev, err := gpu.New(cfg)
		if err != nil {
			return err
		}
		res, err := dev.Run(wk)
		if err != nil {
			return err
		}
		t.AddRow(strconv.Itoa(gen.pipes), gen.name, report.Seconds(res.Seconds()),
			fmt.Sprintf("%.0f%%", 100*res.Time.Component("compute")/res.Seconds()))
	}
	if err := emit(w, t, csv); err != nil {
		return err
	}
	if !csv {
		fmt.Fprintln(w, "pipeline scaling saturates as the fixed PCIe + dispatch costs take over —")
		fmt.Fprintln(w, "the same wall the small-N end of Figure 7 runs into.")
	}
	return nil
}

// extMPP reproduces the motivation claim of section 2: conventional
// message-passing MD stops scaling at a few hundred processors, far
// below a 64K-core Blue Gene/L — which is why the paper turns to
// single-chip accelerators.
func extMPP(w io.Writer, csv, quick, bars bool) error {
	c := mpp.DefaultConfig()
	const atoms = 100000
	t := report.NewTable(
		fmt.Sprintf("Extension: MPP strong-scaling model (%d-atom system; section 2's motivation)", atoms),
		"processors", "step time", "speedup", "efficiency")
	for p := 1; p <= 65536; p *= 4 {
		total, _, _, err := c.StepTime(atoms, p)
		if err != nil {
			return err
		}
		s, err := c.Speedup(atoms, p)
		if err != nil {
			return err
		}
		e, err := c.Efficiency(atoms, p)
		if err != nil {
			return err
		}
		t.AddRow(strconv.Itoa(p), report.Seconds(total), fmt.Sprintf("%.0fx", s), fmt.Sprintf("%.0f%%", 100*e))
	}
	if err := emit(w, t, csv); err != nil {
		return err
	}
	limit, err := c.ScalingLimit(atoms, 0.5, 65536)
	if err != nil {
		return err
	}
	if !csv {
		fmt.Fprintf(w, "efficiency holds to ~%d processors and collapses well before 64K —\n", limit)
		fmt.Fprintln(w, "\"the current scaling limits of most MD algorithms ... is a few hundred processors\".")
	}
	return nil
}

// extAmortization sweeps the time-step count for the Cell's
// launch-once mode: "Amortizing the thread launch overhead across even
// more time steps would further increase this performance gap"
// (section 5.1).
func extAmortization(w io.Writer, csv, quick, bars bool) error {
	atoms := 1024
	if quick {
		atoms = 512
	}
	t := report.NewTable(
		fmt.Sprintf("Extension: launch-overhead amortization vs run length (%d atoms, 8 SPEs; section 5.1's closing remark)", atoms),
		"steps", "total runtime", "spawn share", "speedup vs Opteron")
	op := core.NewOpteron()
	dev, err := core.NewCell(8, cell.LaunchOnce)
	if err != nil {
		return err
	}
	for _, steps := range []int{1, 5, 10, 50, 100} {
		wk, err := core.StandardWorkload(atoms, steps)
		if err != nil {
			return err
		}
		res, err := dev.Run(wk)
		if err != nil {
			return err
		}
		ro, err := op.Run(wk)
		if err != nil {
			return err
		}
		t.AddRow(strconv.Itoa(steps), report.Seconds(res.Seconds()),
			fmt.Sprintf("%.1f%%", 100*res.Time.Component("spawn")/res.Seconds()),
			fmt.Sprintf("%.2fx", ro.Seconds()/res.Seconds()))
	}
	return emit(w, t, csv)
}
