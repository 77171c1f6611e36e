package md

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
)

func TestCellListRejectsBadGeometry(t *testing.T) {
	if _, err := NewCellList[float64](0, 2.5); err == nil {
		t.Fatal("zero box accepted")
	}
	if _, err := NewCellList[float64](10, 0); err == nil {
		t.Fatal("zero cutoff accepted")
	}
	// Box of 7 with cutoff 2.5 -> 2 cells per edge: too few.
	if _, err := NewCellList[float64](7, 2.5); err == nil {
		t.Fatal("2-cell grid accepted")
	}
}

func TestCellListMatchesReference(t *testing.T) {
	// Needs a box >= 3 cutoffs: 864 atoms at standard density gives
	// box ~10.1 with cutoff 2.5 -> 4 cells per edge.
	s := makeSystem(t, 864, false)
	cl, err := NewCellList(s.P.Box, s.P.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Dims() < 3 {
		t.Fatalf("dims = %d", cl.Dims())
	}
	accRef := MakeCoords[float64](s.N())
	accCL := MakeCoords[float64](s.N())
	peRef := ComputeForces(s.P, s.Pos, accRef)
	peCL := cl.Forces(s.P, s.Pos, accCL)
	if math.Abs(peRef-peCL) > 1e-9*(1+math.Abs(peRef)) {
		t.Fatalf("PE mismatch: ref %v, cells %v", peRef, peCL)
	}
	for i := 0; i < accRef.Len(); i++ {
		if accRef.At(i).Sub(accCL.At(i)).Norm() > 1e-9*(1+accRef.At(i).Norm()) {
			t.Fatalf("acc mismatch at %d: %+v vs %+v", i, accRef.At(i), accCL.At(i))
		}
	}
}

func TestCellListTrajectoryMatches(t *testing.T) {
	ref := makeSystem(t, 500, false)
	opt := ref.Clone()
	cl, err := NewCellList(opt.P.Box, opt.P.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30
	for i := 0; i < steps; i++ {
		ref.Step()
		opt.StepWith(func() float64 { return cl.Forces(opt.P, opt.Pos, opt.Acc) })
	}
	for i := 0; i < ref.N(); i++ {
		if d := ref.Pos.At(i).Sub(opt.Pos.At(i)).Norm(); d > 1e-8 {
			t.Fatalf("trajectories diverged at atom %d by %v", i, d)
		}
	}
	if cl.Builds() != steps {
		t.Fatalf("builds = %d, want %d", cl.Builds(), steps)
	}
}

func TestCellListFloat32(t *testing.T) {
	st, err := lattice.Generate(lattice.Config{
		N: 500, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := md32Params(st)
	pos := MakeCoords[float32](len(st.Pos))
	for i := range st.Pos {
		pos.Set(i, vec.FromV3f64[float32](st.Pos[i]))
	}
	cl, err := NewCellList(p.Box, p.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	accRef := MakeCoords[float32](pos.Len())
	accCL := MakeCoords[float32](pos.Len())
	peRef := ComputeForces(p, pos, accRef)
	peCL := cl.Forces(p, pos, accCL)
	if rel := math.Abs(float64(peRef-peCL)) / math.Abs(float64(peRef)); rel > 1e-4 {
		t.Fatalf("float32 PE mismatch: %v vs %v", peRef, peCL)
	}
}

func md32Params(st *lattice.State) Params[float32] {
	return Params[float32]{Box: float32(st.Box), Cutoff: 2.5, Dt: 0.004}
}

// checkBinning bins pos and checks that every atom sits in exactly
// one CSR run, and that the run is the one CellOfWrapped names (so
// every cell index is in range).
func checkBinning(t *testing.T, cl *CellList[float64], pos Coords[float64]) {
	t.Helper()
	cl.BinWrapped(pos)
	order, _ := cl.Packed()
	found := make([]int, pos.Len())
	for c := 0; c < cl.NumCells(); c++ {
		lo, hi := cl.CellSpan(c)
		for k := lo; k < hi; k++ {
			i := int(order[k])
			found[i]++
			if got := cl.CellOfWrapped(pos.At(i)); got != c {
				t.Fatalf("atom %d at %+v sits in cell %d's run, CellOfWrapped says %d", i, pos.At(i), c, got)
			}
		}
	}
	for i, n := range found {
		if n != 1 {
			t.Fatalf("atom %d appears in %d cell runs, want 1", i, n)
		}
	}
}

func TestCellIndexInRange(t *testing.T) {
	cl, err := NewCellList[float64](10, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	// Edge positions must clamp, not overflow.
	checkBinning(t, cl, CoordsFromV3([]vec.V3[float64]{
		{},
		{X: 9.9999999999, Y: 9.9999999999, Z: 9.9999999999},
		{X: 5, Y: 0, Z: 9.99},
	}))
}

func TestCellIndexNegativeCoordinatesClamp(t *testing.T) {
	cl, err := NewCellList[float64](10, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	// Positions perturbed just below zero (a wrap that rounds to -0.0 or
	// a tiny negative) must fold to their periodic image, not truncate
	// into a negative index; so must the boundary atoms below, every
	// one reachable from exactly one cell run.
	checkBinning(t, cl, CoordsFromV3([]vec.V3[float64]{
		{X: -1e-15, Y: 5, Z: 5},
		{X: 5, Y: math.Copysign(0, -1), Z: 5},
		{X: -1e-15, Y: -1e-300, Z: -0.0},
		{X: -2.6, Y: 5, Z: 5}, // a full cell below zero folds too
		{X: -1e-15, Y: 9.9999999999, Z: 0},
		{X: 5, Y: 5, Z: 5},
		{X: 0, Y: 0, Z: -1e-16},
	}))
	d := cl.Dims()
	if c, want := cl.CellOfWrapped(vec.V3[float64]{X: -1e-15, Y: 0.1, Z: 0.1}), (d-1)*d*d; c != want {
		t.Fatalf("just-below-zero position landed in cell %d, want %d (the last cell along x)", c, want)
	}
}

// TestCellListSparseBoxCapsGrid pins the grid cap on a box far larger
// than its atoms can fill: two atoms at density 1e-12 give a box of
// ~12600 cutoffs per edge, which the uncapped box/cutoff rule would
// size to 5039³ cells (a 512 GB arena). The grid must stay within
// maxBuildGridDims(2) and the forces must still be right, for a pair
// in the interior and for one straddling the periodic boundary.
func TestCellListSparseBoxCapsGrid(t *testing.T) {
	const n = 2
	box := math.Cbrt(n / 1e-12)
	p := Params[float64]{Box: box, Cutoff: 2.5, Dt: 0.004}
	for _, pos := range []Coords[float64]{
		CoordsFromV3([]vec.V3[float64]{{X: 100, Y: 200, Z: 300}, {X: 101.1, Y: 200.2, Z: 299.9}}),
		CoordsFromV3([]vec.V3[float64]{{X: 0.3, Y: 5, Z: box - 0.2}, {X: box - 0.8, Y: 5.1, Z: 0.4}}),
	} {
		cl, err := NewCellList(p.Box, p.Cutoff)
		if err != nil {
			t.Fatal(err)
		}
		acc := MakeCoords[float64](n)
		accRef := MakeCoords[float64](n)
		pe := cl.Forces(p, pos, acc)
		peRef := ComputeForces(p, pos, accRef)
		if d := cl.Dims(); d > maxBuildGridDims(n) {
			t.Fatalf("grid dims %d, want <= maxBuildGridDims(%d) = %d", d, n, maxBuildGridDims(n))
		}
		if peRef == 0 {
			t.Fatal("test pair does not interact")
		}
		if math.Abs(pe-peRef) > 1e-9*(1+math.Abs(peRef)) {
			t.Fatalf("PE %v, want %v", pe, peRef)
		}
		for i := 0; i < n; i++ {
			if acc.At(i).Sub(accRef.At(i)).Norm() > 1e-9*(1+accRef.At(i).Norm()) {
				t.Fatalf("acc[%d] = %+v, want %+v", i, acc.At(i), accRef.At(i))
			}
		}
	}
}

func TestNeighborCellsFullShell(t *testing.T) {
	cl, err := NewCellList[float64](10, 2.5) // dims = 4
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 27)
	for c := 0; c < cl.NumCells(); c++ {
		cells := cl.NeighborCells(c, buf)
		if len(cells) != 27 {
			t.Fatalf("cell %d: %d neighbor cells, want 27", c, len(cells))
		}
		if cells[0] != c {
			t.Fatalf("cell %d: first entry is %d, want the cell itself", c, cells[0])
		}
		seen := map[int]bool{}
		for _, nc := range cells {
			if nc < 0 || nc >= cl.NumCells() {
				t.Fatalf("cell %d: neighbor %d out of range", c, nc)
			}
			if seen[nc] {
				t.Fatalf("cell %d: neighbor %d duplicated", c, nc)
			}
			seen[nc] = true
		}
	}
}

func TestHalfNeighborOffsetsCoverAllPairs(t *testing.T) {
	// The 13 half-shell offsets plus their negations plus zero must be
	// exactly the 27 cube offsets.
	seen := map[[3]int]bool{{0, 0, 0}: true}
	for _, off := range halfNeighborOffsets {
		neg := [3]int{-off[0], -off[1], -off[2]}
		if seen[off] || seen[neg] {
			t.Fatalf("offset %v duplicated (directly or as negation)", off)
		}
		seen[off] = true
		seen[neg] = true
	}
	if len(seen) != 27 {
		t.Fatalf("half shell covers %d offsets, want 27", len(seen))
	}
}

func BenchmarkForcesDirectVsCellList(b *testing.B) {
	st, err := lattice.Generate(lattice.Config{
		N: 2048, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004}
	sys, err := NewSystem(st, p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ComputeForces(sys.P, sys.Pos, sys.Acc)
		}
	})
	b.Run("celllist", func(b *testing.B) {
		cl, err := NewCellList(p.Box, p.Cutoff)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl.Forces(sys.P, sys.Pos, sys.Acc)
		}
	})
}
