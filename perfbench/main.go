// Command perfbench is the repository's layered benchmark. It drives
// three workloads through the public APIs of internal/mdrun, internal/md
// and internal/serve in one process:
//
//	md-steady    a steady NVE Lennard-Jones fluid on the Verlet pairlist
//	md-rebuild   the same pipeline run hot, rebuild-bound and output-heavy
//	serve-small  open-loop small jobs through the mdserve HTTP handler
//
// With -trace 0 it prints the end-to-end metrics of an untraced run;
// with -trace 1 it prints the per-layer metrics of a traced run, whose
// spans are recorded around calls into each layer from this package.
// Every run checks the program's outputs. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
// README.md lists the workloads, the metrics and the layer each
// metric belongs to.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload md-steady --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// buildDir is where run.sh builds the benchmark; runs keep their
// scratch files and span dumps under it too, so a run writes only
// inside its checkout.
const buildDir = ".bench_build"

// env is what one workload run receives.
type env struct {
	seed    uint64
	seconds int
	trace   bool
	dir     string // scratch directory, removed after the run
	spans   string // where a traced run writes its spans; "" to skip
}

func (e env) window() time.Duration { return time.Duration(e.seconds) * time.Second }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run produces: its metrics, its tally of
// checked operations, and human-readable notes printed before the
// result line.
type outcome struct {
	metrics map[string]metric
	tally   tally
	invalid string // non-empty when the run did not measure what it claims
	notes   []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// tally counts attempted operations and output checks, and the ones
// that failed. Every failure counts in failed_frac.
type tally struct {
	attempted, failed int
	problems          []string
}

// check records one checked operation.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(context.Context, env) (*outcome, error)
}{
	"md-steady":   {mdSteady.run, mdSteady.traced},
	"md-rebuild":  {mdRebuild.run, mdRebuild.traced},
	"serve-small": {runServe, traceServe},
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"md-steady", "md-rebuild", "serve-small"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "md-steady | md-rebuild | serve-small | all")
	seed := fs.Uint64("seed", 1, "workload seed: the generated inputs derive from it alone")
	seconds := fs.Int("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 prints per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, n := range names {
		o, err := runOne(n, env{seed: *seed, seconds: *seconds, trace: *trace == 1})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		printOutcome(stdout, n, o)
		res.Attempted += o.tally.attempted
		res.Failed += o.tally.failed
		res.Correct = res.Correct && o.tally.failed == 0 && o.invalid == ""
		for k, m := range o.metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			res.Metrics[k] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runOne runs one workload in a fresh scratch directory.
func runOne(name string, e env) (*outcome, error) {
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	w := workloads[name]
	f := w.run
	if e.trace {
		f = w.trace
		e.spans = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
	}
	// Every run must end well inside the three-minute limit; a
	// workload that overruns is cancelled within one MD step.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	o, err := f(ctx, e)
	if err != nil {
		return nil, err
	}
	// A metric without a measurement (no samples) is a failed
	// operation, and JSON has no NaN.
	for k, m := range o.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			o.tally.check(false, "%s has no measurement", k)
			o.metrics[k] = metric{0, m.Unit}
		}
	}
	return o, nil
}

// printOutcome writes the human-readable report: host facts, every
// metric by name with its unit, failures and notes.
func printOutcome(w io.Writer, name string, o *outcome) {
	fmt.Fprintf(w, "== %s  (%s)\n", name, hostFacts())
	keys := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", k, o.metrics[k].Value, o.metrics[k].Unit)
	}
	frac := 0.0
	if o.tally.attempted > 0 {
		frac = float64(o.tally.failed) / float64(o.tally.attempted)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %s  (%d of %d)\n", "failed_frac", frac, "fraction", o.tally.failed, o.tally.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range o.tally.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	if o.invalid != "" {
		fmt.Fprintf(w, "  INVALID: %s\n", o.invalid)
	}
}

// hostFacts names the host the numbers were measured on.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s L2=%dB", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), l2Bytes())
}

// l2Bytes reads the per-core L2 size from sysfs, or 0 when the host
// does not expose it.
func l2Bytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "2" {
			continue
		}
		size, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(size))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}

// deriveSeed mixes the workload seed with a label into a non-zero
// input seed, so each generated input has its own stream.
func deriveSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	x := h.Sum64()
	// splitmix64 finalizer: FNV's low bits are weak for nearby labels.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// durations converts to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
