package md

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
)

// The cell grid lives inside NeighborList, so the force-level tests
// below drive it through the list: 864 atoms at the standard density
// give a box of ~10.1, which holds three (Cutoff+Skin)-wide cells per
// edge, so every build bins (each such test asserts binned() to keep
// that true). The binning tests further down use a cellGrid directly.

// TestCellListRejectsBadGeometry pins the sizing rule's refusals: a
// box that cannot hold three list-radius-wide cells per edge, a zero
// or NaN box or radius, all answer 0 (the list then falls back to the
// one-cell scan) instead of sizing a degenerate grid.
func TestCellListRejectsBadGeometry(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct{ box, rl float64 }{
		{0, 2.9}, {10, 0}, {-10, 2.9}, {10, -1},
		{8.6, 2.9}, // 2.97 cells per edge: too few
		{nan, 2.9}, {10, nan},
	} {
		if d := buildGridDims(c.box, c.rl, 864); d != 0 {
			t.Errorf("buildGridDims(%v, %v) = %d, want 0", c.box, c.rl, d)
		}
	}
	if d := buildGridDims(10.1, 2.9, 864); d != 3 {
		t.Fatalf("buildGridDims(10.1, 2.9) = %d, want 3", d)
	}
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	s := makeSystem(t, 500, false) // box ~8.4: 2.9 cells of 2.9
	nl.Build(s.P, s.Pos)
	if nl.binned() {
		t.Fatal("a box under three cells per edge took the cell-binned build")
	}
}

// TestCellListMatchesReference: forces over a cell-binned list are
// ComputeForces bit for bit.
func TestCellListMatchesReference(t *testing.T) {
	s := makeSystem(t, 864, false)
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	accRef := MakeCoords[float64](s.N())
	accNL := MakeCoords[float64](s.N())
	peRef := ComputeForces(s.P, s.Pos, accRef)
	peNL := nl.Forces(s.P, s.Pos, accNL)
	if !nl.binned() {
		t.Fatalf("build did not bin: dims %d", nl.grid.dims)
	}
	if peRef != peNL {
		t.Fatalf("PE mismatch: ref %v, cell-binned list %v", peRef, peNL)
	}
	for i := 0; i < accRef.Len(); i++ {
		if accRef.At(i) != accNL.At(i) {
			t.Fatalf("acc mismatch at %d: %+v vs %+v", i, accRef.At(i), accNL.At(i))
		}
	}
}

// TestCellListTrajectoryMatches integrates through several rebuilds of
// a cell-binned list (a tight skin forces them) and must stay on the
// reference trajectory bit for bit.
func TestCellListTrajectoryMatches(t *testing.T) {
	ref := makeSystem(t, 864, false)
	opt := ref.Clone()
	nl, err := NewNeighborList[float64](0.05)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30
	for i := 0; i < steps; i++ {
		ref.Step()
		opt.StepWith(func() float64 { return nl.Forces(opt.P, opt.Pos, opt.Acc) })
	}
	if !nl.binned() {
		t.Fatal("build did not bin")
	}
	for i := 0; i < ref.N(); i++ {
		if ref.Pos.At(i) != opt.Pos.At(i) || ref.Vel.At(i) != opt.Vel.At(i) {
			t.Fatalf("trajectories diverged at atom %d", i)
		}
	}
	if nl.Builds() < 2 {
		t.Fatalf("builds = %d, want several over %d steps", nl.Builds(), steps)
	}
}

// TestCellListFloat32 runs the cell-binned build at float32, where
// folding and cell lookup round differently, and pins its forces to
// ComputeForces bit for bit.
func TestCellListFloat32(t *testing.T) {
	st, err := lattice.Generate(lattice.Config{
		N: 864, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params[float32]{Box: float32(st.Box), Cutoff: 2.5, Dt: 0.004}
	pos := MakeCoords[float32](len(st.Pos))
	for i := range st.Pos {
		pos.Set(i, vec.FromV3f64[float32](st.Pos[i]))
	}
	nl, err := NewNeighborList[float32](0.4)
	if err != nil {
		t.Fatal(err)
	}
	accRef := MakeCoords[float32](pos.Len())
	accNL := MakeCoords[float32](pos.Len())
	peRef := ComputeForces(p, pos, accRef)
	peNL := nl.Forces(p, pos, accNL)
	if !nl.binned() {
		t.Fatal("build did not bin")
	}
	if peRef != peNL {
		t.Fatalf("float32 PE mismatch: %v vs %v", peRef, peNL)
	}
	for i := 0; i < accRef.Len(); i++ {
		if accRef.At(i) != accNL.At(i) {
			t.Fatalf("float32 acc mismatch at %d: %+v vs %+v", i, accRef.At(i), accNL.At(i))
		}
	}
}

// checkBinning bins pos and checks that every atom sits in exactly
// one CSR run, and that the run is the one cellOfWrapped names (so
// every cell index is in range).
func checkBinning(t *testing.T, g *cellGrid[float64], pos Coords[float64]) {
	t.Helper()
	g.binWrapped(pos, 1)
	found := make([]int, pos.Len())
	for c := 0; c < g.dims*g.dims*g.dims; c++ {
		for k := g.starts[c]; k < g.starts[c+1]; k++ {
			i := int(g.order[k])
			found[i]++
			if got := g.cellOfWrapped(pos.At(i)); got != c {
				t.Fatalf("atom %d at %+v sits in cell %d's run, cellOfWrapped says %d", i, pos.At(i), c, got)
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
	// Edge positions must clamp, not overflow.
	checkBinning(t, &cellGrid[float64]{box: 10, reach: 2.5}, CoordsFromV3([]vec.V3[float64]{
		{},
		{X: 9.9999999999, Y: 9.9999999999, Z: 9.9999999999},
		{X: 5, Y: 0, Z: 9.99},
	}))
}

func TestCellIndexNegativeCoordinatesClamp(t *testing.T) {
	g := &cellGrid[float64]{box: 10, reach: 2.5}
	// Positions perturbed just below zero (a wrap that rounds to -0.0 or
	// a tiny negative) must fold to their periodic image, not truncate
	// into a negative index; so must the boundary atoms below, every
	// one reachable from exactly one cell run.
	checkBinning(t, g, CoordsFromV3([]vec.V3[float64]{
		{X: -1e-15, Y: 5, Z: 5},
		{X: 5, Y: math.Copysign(0, -1), Z: 5},
		{X: -1e-15, Y: -1e-300, Z: -0.0},
		{X: -2.6, Y: 5, Z: 5}, // a full cell below zero folds too
		{X: -1e-15, Y: 9.9999999999, Z: 0},
		{X: 5, Y: 5, Z: 5},
		{X: 0, Y: 0, Z: -1e-16},
	}))
	d := g.dims
	if c, want := g.cellOfWrapped(vec.V3[float64]{X: -1e-15, Y: 0.1, Z: 0.1}), (d-1)*d*d; c != want {
		t.Fatalf("just-below-zero position landed in cell %d, want %d (the last cell along x)", c, want)
	}
}

// TestCellListSparseBoxCapsGrid pins the grid cap on a box far larger
// than its atoms can fill: two atoms at density 1e-12 give a box of
// ~12600 cutoffs per edge, which an uncapped box/radius rule would
// size to billions of cells (a 512 GB arena). The neighbor list's grid
// must stay within maxBuildGridDims(2) and its forces must still be
// ComputeForces bit for bit, for a pair in the interior and for one
// straddling the periodic boundary.
func TestCellListSparseBoxCapsGrid(t *testing.T) {
	const n = 2
	box := math.Cbrt(n / 1e-12)
	p := Params[float64]{Box: box, Cutoff: 2.5, Dt: 0.004}
	for _, pos := range []Coords[float64]{
		CoordsFromV3([]vec.V3[float64]{{X: 100, Y: 200, Z: 300}, {X: 101.1, Y: 200.2, Z: 299.9}}),
		CoordsFromV3([]vec.V3[float64]{{X: 0.3, Y: 5, Z: box - 0.2}, {X: box - 0.8, Y: 5.1, Z: 0.4}}),
	} {
		nl, err := NewNeighborList[float64](0.4)
		if err != nil {
			t.Fatal(err)
		}
		acc := MakeCoords[float64](n)
		accRef := MakeCoords[float64](n)
		pe := nl.Forces(p, pos, acc)
		peRef := ComputeForces(p, pos, accRef)
		if !nl.binned() {
			t.Fatal("sparse box did not take the cell-binned build")
		}
		if d := nl.grid.dims; d > maxBuildGridDims(n) {
			t.Fatalf("grid dims %d, want <= maxBuildGridDims(%d) = %d", d, n, maxBuildGridDims(n))
		}
		if peRef == 0 {
			t.Fatal("test pair does not interact")
		}
		if pe != peRef {
			t.Fatalf("PE %v, want %v", pe, peRef)
		}
		for i := 0; i < n; i++ {
			if acc.At(i) != accRef.At(i) {
				t.Fatalf("acc[%d] = %+v, want %+v", i, acc.At(i), accRef.At(i))
			}
		}
	}
}

func TestNeighborCellsFullShell(t *testing.T) {
	buf := make([]stencilCell, 27)
	if cells := (&cellGrid[float64]{dims: 1}).neighborCells(0, buf); len(cells) != 1 || cells[0] != (stencilCell{}) {
		t.Fatalf("one-cell grid: stencil %v, want [{0 0}]", cells)
	}
	for _, dims := range []int{3, 4} {
		g := &cellGrid[float64]{dims: dims}
		ncells := g.dims * g.dims * g.dims
		for c := 0; c < ncells; c++ {
			cells := g.neighborCells(c, buf)
			if len(cells) != 27 {
				t.Fatalf("dims %d, cell %d: %d neighbor cells, want 27", dims, c, len(cells))
			}
			if cells[0] != (stencilCell{cell: c}) {
				t.Fatalf("dims %d, cell %d: first entry is %v, want the cell itself", dims, c, cells[0])
			}
			seen := map[int]bool{}
			home := [3]int{c / (dims * dims), c / dims % dims, c % dims}
			for _, s := range cells {
				nc := s.cell
				if nc < 0 || nc >= ncells {
					t.Fatalf("dims %d, cell %d: neighbor %d out of range", dims, c, nc)
				}
				if seen[nc] {
					t.Fatalf("dims %d, cell %d: neighbor %d duplicated", dims, c, nc)
				}
				seen[nc] = true
				// An axis wraps exactly when the step from the home cell
				// to the neighbor crosses the box face: from the first
				// cell to the last or from the last to the first.
				at := [3]int{nc / (dims * dims), nc / dims % dims, nc % dims}
				for a := range 3 {
					crosses := home[a] == 0 && at[a] == dims-1 || home[a] == dims-1 && at[a] == 0
					if got := s.wrap>>a&1 == 1; got != crosses {
						t.Fatalf("dims %d, cell %d → %d: axis %d wrap bit %v, want %v", dims, c, nc, a, got, crosses)
					}
				}
			}
		}
	}
}
