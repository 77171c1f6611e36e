package parallel

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/lattice"
	"repro/internal/md"
	"repro/internal/vec"
)

// workerCounts exercises the interesting pool shapes: serial-inline,
// even, odd (uneven shards and a lopsided reduction tree), and more
// workers than can be busy at once on most hosts.
var workerCounts = []int{1, 2, 3, 4, 7, 8}

func makeState(t testing.TB, n int) (*lattice.State, md.Params[float64]) {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(a))
}

func TestClampWorkers(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, runtime.NumCPU()},
		{-1, 1},
		{-1000, 1},
		{1, 1},
		{7, 7},
		{MaxWorkers, MaxWorkers},
		{MaxWorkers + 1, MaxWorkers},
		{1 << 30, MaxWorkers},
	}
	for _, c := range cases {
		if got := ClampWorkers(c.in); got != c.want {
			t.Errorf("ClampWorkers(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestDirectOneWorkerBitwise pins the strongest equivalence: the
// single-worker direct kernel is the same loop as ComputeForcesFull and
// must agree bit for bit, for the plain and the shifted potential.
func TestDirectOneWorkerBitwise(t *testing.T) {
	st, p := makeState(t, 256)
	pos := md.CoordsFromV3(st.Pos)
	e := New[float64](1)
	defer e.Close()
	for _, shifted := range []bool{false, true} {
		p.Shifted = shifted
		accPar := md.MakeCoords[float64](pos.Len())
		accRef := md.MakeCoords[float64](pos.Len())
		pePar, err := e.ForcesDirect(p, pos, accPar)
		if err != nil {
			t.Fatal(err)
		}
		peRef := md.ComputeForcesFull(p, pos, accRef)
		if math.Float64bits(pePar) != math.Float64bits(peRef) {
			t.Fatalf("shifted=%v: PE differs bitwise: parallel %v, serial %v", shifted, pePar, peRef)
		}
		for i := 0; i < accRef.Len(); i++ {
			if accPar.At(i) != accRef.At(i) {
				t.Fatalf("shifted=%v: acc[%d] differs bitwise: %+v vs %+v", shifted, i, accPar.At(i), accRef.At(i))
			}
		}
	}
}

// TestDirectMatchesSerial pins every worker count against both serial
// formulations within 1e-10 relative — the acceptance tolerance.
func TestDirectMatchesSerial(t *testing.T) {
	st, p := makeState(t, 500)
	pos := md.CoordsFromV3(st.Pos)
	accHalf := md.MakeCoords[float64](pos.Len())
	accFull := md.MakeCoords[float64](pos.Len())
	peHalf := md.ComputeForces(p, pos, accHalf)
	peFull := md.ComputeForcesFull(p, pos, accFull)
	for _, w := range workerCounts {
		e := New[float64](w)
		acc := md.MakeCoords[float64](pos.Len())
		pe, err := e.ForcesDirect(p, pos, acc)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(pe, peFull); d > 1e-12 {
			t.Errorf("w=%d: PE %v vs full-loop %v (rel %v)", w, pe, peFull, d)
		}
		if d := relDiff(pe, peHalf); d > 1e-10 {
			t.Errorf("w=%d: PE %v vs half-loop %v (rel %v)", w, pe, peHalf, d)
		}
		for i := 0; i < acc.Len(); i++ {
			if acc.At(i) != accFull.At(i) {
				// Atom shards reproduce the serial per-atom gather
				// exactly; any difference is a sharding bug.
				t.Fatalf("w=%d: acc[%d] = %+v, want %+v", w, i, acc.At(i), accFull.At(i))
			}
		}
		e.Close()
	}
}

func TestPairlistMatchesSerial(t *testing.T) {
	st, p := makeState(t, 500)
	pos := md.CoordsFromV3(st.Pos)
	nlRef, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	accRef := md.MakeCoords[float64](pos.Len())
	peRef := nlRef.Forces(p, pos, accRef)
	for _, w := range workerCounts {
		e := New[float64](w)
		nl, err := md.NewNeighborList[float64](0.4)
		if err != nil {
			t.Fatal(err)
		}
		acc := md.MakeCoords[float64](pos.Len())
		pe, err := e.ForcesPairlist(nl, p, pos, acc)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(pe, peRef); d > 1e-12 {
			t.Errorf("w=%d: PE %v vs serial pairlist %v (rel %v)", w, pe, peRef, d)
		}
		for i := 0; i < acc.Len(); i++ {
			if acc.At(i).Sub(accRef.At(i)).Norm() > 1e-10*(1+accRef.At(i).Norm()) {
				t.Fatalf("w=%d: acc[%d] = %+v, want %+v", w, i, acc.At(i), accRef.At(i))
			}
		}
		e.Close()
	}
}

// TestPairlistOneWorkerBitwise: with one worker the pair-chunk kernel
// degenerates to the serial loop and must agree bit for bit.
func TestPairlistOneWorkerBitwise(t *testing.T) {
	st, p := makeState(t, 256)
	pos := md.CoordsFromV3(st.Pos)
	nlRef, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	accRef := md.MakeCoords[float64](pos.Len())
	peRef := nlRef.Forces(p, pos, accRef)
	e := New[float64](1)
	defer e.Close()
	nl, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	acc := md.MakeCoords[float64](pos.Len())
	pe, err := e.ForcesPairlist(nl, p, pos, acc)
	if err != nil {
		t.Fatal(err)
	}
	if pe != peRef {
		t.Fatalf("PE differs bitwise: %v vs %v", pe, peRef)
	}
	for i := 0; i < acc.Len(); i++ {
		if acc.At(i) != accRef.At(i) {
			t.Fatalf("acc[%d] differs bitwise: %+v vs %+v", i, acc.At(i), accRef.At(i))
		}
	}
}

// TestCellKernelsOutOfBoxMatchReference shifts atoms by a whole box
// along different axes (+x, -y, -z) and checks the pairlist kernels,
// serial and sharded, against md.ComputeForces. The list build's cell
// binning must fold each shifted atom to its periodic image; clamping
// it into an edge cell instead loses pairs.
func TestCellKernelsOutOfBoxMatchReference(t *testing.T) {
	st, p := makeState(t, 864)
	pos := md.CoordsFromV3(st.Pos)
	for i := 0; i < pos.Len(); i++ {
		switch {
		case i%37 == 0:
			pos.X[i] += p.Box
		case i%41 == 0:
			pos.Y[i] -= p.Box
		case i%53 == 0:
			pos.Z[i] -= p.Box
		}
	}
	n := pos.Len()
	accRef := md.MakeCoords[float64](n)
	peRef := md.ComputeForces(p, pos, accRef)
	check := func(what string, pe float64, acc md.Coords[float64]) {
		t.Helper()
		if math.Abs(pe-peRef) > 1e-9*(1+math.Abs(peRef)) {
			t.Fatalf("%s: PE %v, reference %v", what, pe, peRef)
		}
		for i := 0; i < n; i++ {
			if acc.At(i).Sub(accRef.At(i)).Norm() > 1e-9*(1+accRef.At(i).Norm()) {
				t.Fatalf("%s: acc[%d] = %+v, reference %+v", what, i, acc.At(i), accRef.At(i))
			}
		}
	}
	newList := func() *md.NeighborList[float64] {
		nl, err := md.NewNeighborList[float64](0.4)
		if err != nil {
			t.Fatal(err)
		}
		return nl
	}
	acc := md.MakeCoords[float64](n)
	check("serial", newList().Forces(p, pos, acc), acc)
	for _, w := range []int{1, 2, 4} {
		e := New[float64](w)
		pe, err := e.ForcesPairlist(newList(), p, pos, acc)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("w%d", w), pe, acc)
	}
}

// TestTrajectoryReuse drives a short NVE trajectory through each
// parallel kernel, reusing one engine across steps (the persistent-pool
// path), and checks it stays on the serial trajectory.
func TestTrajectoryReuse(t *testing.T) {
	const steps = 20
	for _, kernel := range []string{"direct", "pairlist"} {
		st, _ := makeState(t, 500)
		ref, err := md.NewSystem(st, md.Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004})
		if err != nil {
			t.Fatal(err)
		}
		par := ref.Clone()
		e := New[float64](4)
		var forces func() (float64, error)
		switch kernel {
		case "direct":
			forces = func() (float64, error) { return e.ForcesDirect(par.P, par.Pos, par.Acc) }
		case "pairlist":
			nl, err := md.NewNeighborList[float64](0.4)
			if err != nil {
				t.Fatal(err)
			}
			forces = func() (float64, error) { return e.ForcesPairlist(nl, par.P, par.Pos, par.Acc) }
		}
		for s := 0; s < steps; s++ {
			ref.Step()
			if err := par.StepWithE(forces); err != nil {
				t.Fatalf("%s: %v", kernel, err)
			}
		}
		for i := 0; i < ref.N(); i++ {
			if d := ref.Pos.At(i).Sub(par.Pos.At(i)).Norm(); d > 1e-8 {
				t.Fatalf("%s: trajectories diverged at atom %d by %v", kernel, i, d)
			}
		}
		e.Close()
	}
}

func TestFloat32Instantiation(t *testing.T) {
	st, _ := makeState(t, 108)
	p := md.Params[float32]{Box: float32(st.Box), Cutoff: 2.5, Dt: 0.004}
	pos := md.MakeCoords[float32](len(st.Pos))
	for i := range st.Pos {
		pos.Set(i, vec.FromV3f64[float32](st.Pos[i]))
	}
	e := New[float32](3)
	defer e.Close()
	acc := md.MakeCoords[float32](pos.Len())
	accRef := md.MakeCoords[float32](pos.Len())
	pe, err := e.ForcesDirect(p, pos, acc)
	if err != nil {
		t.Fatal(err)
	}
	peRef := md.ComputeForcesFull(p, pos, accRef)
	if rel := math.Abs(float64(pe-peRef)) / math.Abs(float64(peRef)); rel > 1e-5 {
		t.Fatalf("float32 PE mismatch: %v vs %v (rel %v)", pe, peRef, rel)
	}
}

func TestEngineDefaultsAndClose(t *testing.T) {
	e := New[float64](0)
	if e.Workers() != runtime.NumCPU() {
		t.Fatalf("New(0).Workers() = %d, want NumCPU %d", e.Workers(), runtime.NumCPU())
	}
	e.Close()
	e.Close() // idempotent

	e = New[float64](-5)
	if e.Workers() != 1 {
		t.Fatalf("New(-5).Workers() = %d, want 1", e.Workers())
	}
	e.Close()
}

func TestEmptyAndTinySystems(t *testing.T) {
	p := md.Params[float64]{Box: 10, Cutoff: 2.5, Dt: 0.004}
	e := New[float64](4)
	defer e.Close()
	// No atoms.
	if pe, err := e.ForcesDirect(p, md.Coords[float64]{}, md.Coords[float64]{}); err != nil || pe != 0 {
		t.Fatalf("empty system PE = %v, err %v", pe, err)
	}
	// Fewer atoms than workers.
	pos := md.CoordsFromV3([]vec.V3[float64]{{X: 1, Y: 1, Z: 1}, {X: 2, Y: 1, Z: 1}})
	acc := md.MakeCoords[float64](2)
	accRef := md.MakeCoords[float64](2)
	pe, err := e.ForcesDirect(p, pos, acc)
	if err != nil {
		t.Fatal(err)
	}
	peRef := md.ComputeForcesFull(p, pos, accRef)
	if pe != peRef {
		t.Fatalf("2-atom PE %v, want %v", pe, peRef)
	}
	if acc.At(0) != accRef.At(0) || acc.At(1) != accRef.At(1) {
		t.Fatalf("2-atom acc %+v, want %+v", acc.V3s(), accRef.V3s())
	}
}
