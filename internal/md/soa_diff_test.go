// soa_diff_test.go is the differential harness pinning the SoA hot-state
// refactor bitwise against the AoS layout it replaced: randomized
// thermalized systems are stepped under every force method × worker
// count combination, every step's full state (positions,
// velocities, accelerations, PE, KE) is folded into a SHA-256 in a
// canonical atom-major byte order that is independent of the in-memory
// layout, and the digests are compared against goldens recorded from
// the pre-refactor AoS build (testdata/soa_goldens.json, committed at
// the seed commit of PR 10). A single flipped bit anywhere in any
// trajectory changes the digest.
//
// The test lives in package md_test so it can drive the parallel
// engine (internal/parallel imports internal/md).
//
// Regenerate goldens (only legitimate when the trajectory bytes are
// *supposed* to change, which the SoA refactor explicitly is not):
//
//	go test ./internal/md -run TestSoATrajectoryGoldens -update-soa-goldens
package md_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/parallel"
	"repro/internal/vec"
)

// Layout-independent element accessors: the serializer below reads
// state only through these, so the golden bytes are defined by the
// (atom, component) order alone, not by how System stores it.
func bitsOf(v float64) uint64                              { return math.Float64bits(v) }
func posAt(sys *md.System[float64], i int) vec.V3[float64] { return sys.Pos.At(i) }
func velAt(sys *md.System[float64], i int) vec.V3[float64] { return sys.Vel.At(i) }
func accAt(sys *md.System[float64], i int) vec.V3[float64] { return sys.Acc.At(i) }

var updateSoAGoldens = flag.Bool("update-soa-goldens", false,
	"rewrite testdata/soa_goldens.json from the current build")

const (
	soaAtoms   = 500
	soaDensity = 0.8
	soaTemp    = 1.2
	soaCutoff  = 2.5
	soaDt      = 0.004
	soaSkin    = 0.4
	soaSteps   = 30
)

var soaSeeds = []uint64{11, 42}

// soaCase is one (method, workers) trajectory configuration. Workers is
// 0 for the serial methods.
type soaCase struct {
	Method  string
	Workers int
}

// soaCases sweeps all force methods; the parallel families sweep
// Workers ∈ {1, 2, 4, 8} because the scatter/tree-reduce kernels'
// output bytes legitimately depend on the worker count (each count is
// its own golden).
func soaCases() []soaCase {
	cases := []soaCase{
		{Method: "direct"}, {Method: "pairlist"},
	}
	for _, m := range []string{"pardirect", "parpairlist"} {
		for _, w := range []int{1, 2, 4, 8} {
			cases = append(cases, soaCase{Method: m, Workers: w})
		}
	}
	return cases
}

// newSoASystem builds the randomized thermalized starting state for a
// seed: lattice positions, Maxwell-Boltzmann velocities, forces
// evaluated once by NewSystem.
func newSoASystem(t testing.TB, seed uint64) *md.System[float64] {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: soaAtoms, Density: soaDensity, Temperature: soaTemp,
		Kind: lattice.FCC, Seed: seed,
	})
	if err != nil {
		t.Fatalf("lattice.Generate: %v", err)
	}
	sys, err := md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: soaCutoff, Dt: soaDt})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// soaForces wires the force evaluation for one case on the md and
// parallel kernels directly. The returned cleanup closes any engine.
func soaForces(t testing.TB, sys *md.System[float64], c soaCase) (forces func() float64, cleanup func()) {
	t.Helper()
	noop := func() {}
	newEngine := func() *parallel.Engine[float64] {
		return parallel.New[float64](c.Workers)
	}
	switch c.Method {
	case "direct":
		return func() float64 { return md.ComputeForces(sys.P, sys.Pos, sys.Acc) }, noop
	case "pairlist":
		nl, err := md.NewNeighborList[float64](soaSkin)
		if err != nil {
			t.Fatalf("NewNeighborList: %v", err)
		}
		return func() float64 { return nl.Forces(sys.P, sys.Pos, sys.Acc) }, noop
	case "pardirect":
		e := newEngine()
		return mustForces(t, func() (float64, error) { return e.ForcesDirect(sys.P, sys.Pos, sys.Acc) }), e.Close
	case "parpairlist":
		nl, err := md.NewNeighborList[float64](soaSkin)
		if err != nil {
			t.Fatalf("NewNeighborList: %v", err)
		}
		e := newEngine()
		return mustForces(t, func() (float64, error) { return e.ForcesPairlist(nl, sys.P, sys.Pos, sys.Acc) }), e.Close
	default:
		t.Fatalf("unknown method %q", c.Method)
		return nil, nil
	}
}

// mustForces adapts a sharded kernel to the infallible step signature:
// no fault is armed in these runs, so any worker error fails the test.
func mustForces(t testing.TB, kernel func() (float64, error)) func() float64 {
	return func() float64 {
		pe, err := kernel()
		if err != nil {
			t.Fatal(err)
		}
		return pe
	}
}

// appendStateBytes serializes the full dynamic state in the canonical,
// layout-independent order: for each atom, pos.x pos.y pos.z, then all
// velocities, then all accelerations (atom-major, float64 LE bits),
// then PE and KE. This is the byte stream whose SHA-256 the goldens
// pin, so it must never depend on how the state is stored in memory.
func appendStateBytes(buf []byte, sys *md.System[float64]) []byte {
	f := func(buf []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(buf, bitsOf(v))
	}
	n := sys.N()
	for i := 0; i < n; i++ {
		p := posAt(sys, i)
		buf = f(f(f(buf, p.X), p.Y), p.Z)
	}
	for i := 0; i < n; i++ {
		v := velAt(sys, i)
		buf = f(f(f(buf, v.X), v.Y), v.Z)
	}
	for i := 0; i < n; i++ {
		a := accAt(sys, i)
		buf = f(f(f(buf, a.X), a.Y), a.Z)
	}
	return f(f(buf, sys.PE), sys.KE)
}

// soaTrajectoryDigest steps one case and returns the hex SHA-256 over
// every step's canonical state bytes (including the initial state, so
// NewSystem's first force evaluation is pinned too).
func soaTrajectoryDigest(t testing.TB, seed uint64, c soaCase) string {
	sys := newSoASystem(t, seed)
	forces, cleanup := soaForces(t, sys, c)
	defer cleanup()
	h := sha256.New()
	buf := make([]byte, 0, sys.N()*9*8+16)
	h.Write(appendStateBytes(buf, sys))
	for s := 0; s < soaSteps; s++ {
		sys.StepWith(forces)
		h.Write(appendStateBytes(buf[:0], sys))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func soaCaseKey(seed uint64, c soaCase) string {
	if c.Workers == 0 {
		return fmt.Sprintf("seed%d/%s", seed, c.Method)
	}
	return fmt.Sprintf("seed%d/%s/w%d", seed, c.Method, c.Workers)
}

const soaGoldenPath = "testdata/soa_goldens.json"

// TestSoATrajectoryGoldens is the differential gate: every method ×
// workers trajectory must reproduce, byte for byte, the
// trajectory the AoS layout produced at the seed commit.
func TestSoATrajectoryGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("differential trajectory sweep is not -short")
	}
	digests := make(map[string]string)
	for _, seed := range soaSeeds {
		for _, c := range soaCases() {
			key := soaCaseKey(seed, c)
			t.Run(key, func(t *testing.T) {
				digests[key] = soaTrajectoryDigest(t, seed, c)
			})
		}
	}

	if *updateSoAGoldens {
		keys := make([]string, 0, len(digests))
		for k := range digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(digests))
		for _, k := range keys {
			ordered[k] = digests[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatalf("marshal goldens: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(soaGoldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(soaGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write goldens: %v", err)
		}
		t.Logf("wrote %d goldens to %s", len(ordered), soaGoldenPath)
		return
	}

	data, err := os.ReadFile(soaGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-soa-goldens ONLY if trajectories are meant to change): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if len(want) != len(digests) {
		t.Errorf("golden file has %d entries, sweep produced %d", len(want), len(digests))
	}
	for key, got := range digests {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden recorded", key)
			continue
		}
		if got != w {
			t.Errorf("%s: trajectory diverged from AoS golden\n  got  %s\n  want %s", key, got, w)
		}
	}
}
