package md

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// randomPositions fills n positions uniformly in [0, span)³.
func randomPositions(rng *xrand.Source, n int, span float64) Coords[float64] {
	pos := MakeCoords[float64](n)
	for i := 0; i < n; i++ {
		pos.Set(i, vec.V3[float64]{
			X: rng.Float64() * span,
			Y: rng.Float64() * span,
			Z: rng.Float64() * span,
		})
	}
	return pos
}

// binned reports whether the last Build gathered over a real cell grid
// (three or more cells per edge) rather than the one-cell scan.
func (nl *NeighborList[T]) binned() bool { return nl.grid.dims >= 3 }

// checkRowsWellFormed asserts every row holds strictly ascending
// in-bounds indices j > i — the shape every build path must produce.
func checkRowsWellFormed(t *testing.T, nl *NeighborList[float64], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		prev := int32(i)
		for _, j := range nl.Neighbors(i) {
			if j <= prev || int(j) >= n {
				t.Fatalf("row %d malformed: neighbor %d after %d (n=%d)", i, j, prev, n)
			}
			prev = j
		}
	}
}

// checkSamePairs asserts two lists store byte-identical rows.
func checkSamePairs[T vec.Float](t *testing.T, want, got *NeighborList[T], n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, g := want.Neighbors(i), got.Neighbors(i)
		if len(w) != len(g) {
			t.Fatalf("%s: row %d has %d neighbors, want %d", label, i, len(g), len(w))
		}
		for k := range w {
			if w[k] != g[k] {
				t.Fatalf("%s: row %d entry %d is %d, want %d", label, i, k, g[k], w[k])
			}
		}
	}
}

// TestBuildCellBinnedMatchesN2Randomized is the build property test:
// over randomized boxes, cutoffs, skins, and atom counts, the
// cell-binned Build and the reference O(N²) BuildN2 produce identical
// pair sets in identical order. The geometry ranges are chosen so both
// the grid path and the small-box fallback are exercised; the test
// asserts the grid path actually ran.
func TestBuildCellBinnedMatchesN2Randomized(t *testing.T) {
	rng := xrand.New(7)
	gridTrials := 0
	for trial := 0; trial < 60; trial++ {
		box := 2 + 14*rng.Float64()
		cutoff := 0.4 + 1.6*rng.Float64()
		skin := 0.1 + 0.7*rng.Float64()
		n := 16 + rng.Intn(220)
		pos := randomPositions(rng, n, box)
		p := Params[float64]{Box: box, Cutoff: cutoff, Dt: 0.001}

		ref, err := NewNeighborList[float64](skin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewNeighborList[float64](skin)
		if err != nil {
			t.Fatal(err)
		}
		ref.BuildN2(p, pos)
		got.Build(p, pos)
		if got.binned() {
			gridTrials++
		}
		checkRowsWellFormed(t, got, n)
		checkSamePairs(t, ref, got, n,
			fmt.Sprintf("trial %d (box %.4g, cutoff %.4g, skin %.4g, n %d)",
				trial, box, cutoff, skin, n))
	}
	if gridTrials == 0 {
		t.Fatal("no trial took the cell-binned path; geometry ranges too small")
	}
	for _, c := range buildEdgeCases() {
		ref, err := NewNeighborList[float64](c.skin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewNeighborList[float64](c.skin)
		if err != nil {
			t.Fatal(err)
		}
		ref.BuildN2(c.p, c.pos)
		got.Build(c.p, c.pos)
		if got.grid.dims != c.dims {
			t.Fatalf("%s: grid has %d cells per edge, want %d", c.name, got.grid.dims, c.dims)
		}
		checkRowsWellFormed(t, got, c.pos.Len())
		checkSamePairs(t, ref, got, c.pos.Len(), c.name)
	}
}

// buildEdgeCase is one directed build geometry, with the cells per edge
// the grid must take for it.
type buildEdgeCase struct {
	name string
	p    Params[float64]
	skin float64
	pos  Coords[float64]
	dims int
}

// buildEdgeCases returns the geometries the randomized trials are
// unlikely to hit: the smallest grid, a mostly empty grid, every atom
// in one cell, coincident atoms, atoms one box outside, and a box too
// small for a grid.
func buildEdgeCases() []buildEdgeCase {
	const cutoff, skin = 2.5, 0.4
	rl := cutoff + skin
	rng := xrand.New(11)
	params := func(box float64) Params[float64] { return Params[float64]{Box: box, Cutoff: cutoff, Dt: 0.001} }
	var cases []buildEdgeCase

	box := 3.05 * rl // three cells per edge, the smallest grid
	cases = append(cases, buildEdgeCase{"three cells per edge", params(box), skin, randomPositions(rng, 300, box), 3})

	box = 40 // 6 cells per edge for 30 atoms: most cells empty
	cases = append(cases, buildEdgeCase{"sparse box", params(box), skin, randomPositions(rng, 30, box), 6})

	box = 12 // every atom inside one cell of a 4-per-edge grid
	one := randomPositions(rng, 80, rl/2)
	for i := range one.X {
		one.X[i] += rl / 4
	}
	cases = append(cases, buildEdgeCase{"all atoms in one cell", params(box), skin, one, 4})

	box = 12 // pairs at r2 == 0, inside a cell and across a cell face
	dup := randomPositions(rng, 120, box)
	for i := 0; i+1 < dup.Len(); i += 4 {
		dup.Set(i+1, dup.At(i))
	}
	dup.Set(3, vec.V3[float64]{X: 3 * box / 4, Y: 1, Z: 1})
	dup.Set(7, vec.V3[float64]{X: 3 * box / 4, Y: 1, Z: 1})
	cases = append(cases, buildEdgeCase{"coincident atoms", params(box), skin, dup, 4})

	box = 12 // a third of the atoms shifted one box out on some axis
	out := randomPositions(rng, 150, box)
	for i := 0; i < out.Len(); i += 3 {
		out.X[i] += box * float64(i%2*2-1)
		out.Z[i] -= box * float64(i%5%2)
	}
	cases = append(cases, buildEdgeCase{"one box outside", params(box), skin, out, 4})

	box = 2.5 * rl // under three cells per edge: the one-cell scan
	cases = append(cases, buildEdgeCase{"one-cell box", params(box), skin, randomPositions(rng, 90, box), 1})
	return cases
}

// TestBuildSpanSplitsMatchBuild pins the shard contract the parallel
// builder relies on: building the cell-ordered atoms as any set of
// spans, each with its own gather scratch and some starting inside a
// cell, gives the rows a single Build gives.
func TestBuildSpanSplitsMatchBuild(t *testing.T) {
	for _, c := range buildEdgeCases() {
		n := c.pos.Len()
		want, err := NewNeighborList[float64](c.skin)
		if err != nil {
			t.Fatal(err)
		}
		want.Build(c.p, c.pos)
		for _, shards := range []int{2, 3, 7} {
			got, err := NewNeighborList[float64](c.skin)
			if err != nil {
				t.Fatal(err)
			}
			got.BeginBuild(c.p, c.pos, shards)
			// One cut one slot past the start of the fullest cell, so a
			// span starts inside a cell whatever the geometry; the rest
			// split the remainder evenly.
			fullest := 0
			for cell := 0; cell+1 < len(got.grid.starts); cell++ {
				if got.grid.starts[cell+1]-got.grid.starts[cell] > got.grid.starts[fullest+1]-got.grid.starts[fullest] {
					fullest = cell
				}
			}
			cuts := []int{0, int(got.grid.starts[fullest]) + 1}
			for k := 1; k < shards-1; k++ {
				cuts = append(cuts, max(cuts[1], k*n/(shards-1)))
			}
			cuts = append(cuts, n)
			for k := 0; k+1 < len(cuts); k++ {
				got.BuildSpan(c.p, c.pos, k, cuts[k], cuts[k+1])
			}
			got.EndBuild(c.pos)
			checkSamePairs(t, want, got, n, fmt.Sprintf("%s, %d spans", c.name, shards))
		}
	}
}

// staleV3 is the V3 form Stale replaced: the minimum image of each
// displacement as a vector, then its Norm2.
func staleV3(nl *NeighborList[float64], p Params[float64], pos Coords[float64]) bool {
	limit := nl.Skin / 2
	for i := 0; i < pos.Len(); i++ {
		if MinImage(pos.At(i).Sub(nl.ref.At(i)), p.Box).Norm2() > limit*limit {
			return true
		}
	}
	return false
}

// TestStaleMatchesV3Form is the differential test for the plane-wise
// Stale: one atom at a time is displaced by Skin/2 and by the next
// float either side of it, along an axis, along a diagonal, and across
// the periodic boundary, and the two forms must answer alike on every
// displacement. The boundary displacements must land on both answers,
// so the comparison is exercised where rounding decides it.
func TestStaleMatchesV3Form(t *testing.T) {
	rng := xrand.New(5)
	p := Params[float64]{Box: 9, Cutoff: 2.5, Dt: 0.001}
	const skin = 0.4
	pos := randomPositions(rng, 64, p.Box)
	pos.Set(0, vec.V3[float64]{X: 1e-9, Y: p.Box - 1e-9, Z: 4})
	nl, err := NewNeighborList[float64](skin)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(p, pos)
	lim := skin / 2
	var steps []vec.V3[float64]
	for _, d := range []float64{math.Nextafter(lim, 0), lim, math.Nextafter(lim, 1)} {
		diag := d / math.Sqrt(3)
		steps = append(steps,
			vec.V3[float64]{X: d}, vec.V3[float64]{Y: -d}, vec.V3[float64]{Z: d},
			vec.V3[float64]{X: diag, Y: diag, Z: -diag},
			vec.V3[float64]{X: math.Nextafter(diag, 1), Y: diag, Z: diag})
	}
	answers := map[bool]int{}
	for _, i := range []int{0, 17, 63} {
		for _, d := range steps {
			moved := MakeCoords[float64](pos.Len())
			moved.CopyFrom(pos)
			moved.Set(i, Wrap(pos.At(i).Add(d), p.Box))
			got, want := nl.Stale(p, moved), staleV3(nl, p, moved)
			if got != want {
				t.Fatalf("atom %d displaced by %+v: Stale %v, V3 form %v", i, d, got, want)
			}
			answers[got]++
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("boundary displacements gave only one answer: %v", answers)
	}
}

// TestBuildGridReusedAcrossRebuilds pins the grid cache: rebuilding in
// the same box reuses one cell grid (no per-rebuild allocation of its
// arenas), while a box change re-sizes it.
func TestBuildGridReusedAcrossRebuilds(t *testing.T) {
	rng := xrand.New(3)
	p := Params[float64]{Box: 9, Cutoff: 2.5, Dt: 0.001}
	pos := randomPositions(rng, 200, p.Box)
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(p, pos)
	if !nl.binned() {
		t.Fatal("geometry supports binning but no grid was built")
	}
	dims := nl.grid.dims
	arena := &nl.grid.csrInts[0]
	nl.Build(p, pos)
	if &nl.grid.csrInts[0] != arena {
		t.Fatal("rebuild in an unchanged box re-allocated the grid arenas")
	}
	p2 := p
	p2.Box = 14
	nl.Build(p2, randomPositions(rng, 200, p2.Box))
	if nl.grid.dims == dims {
		t.Fatal("box change did not re-size the grid")
	}
}

// TestNeighborListRebuildTrigger is the directed staleness-trigger
// test: the first evaluation builds once, a no-motion run never
// rebuilds again, and moving exactly one atom just past Skin/2 causes
// exactly one rebuild.
func TestNeighborListRebuildTrigger(t *testing.T) {
	s := makeSystem(t, 108, false)
	const skin = 0.5
	nl, err := NewNeighborList[float64](skin)
	if err != nil {
		t.Fatal(err)
	}
	acc := MakeCoords[float64](s.N())

	nl.Forces(s.P, s.Pos, acc)
	if nl.Builds() != 1 {
		t.Fatalf("first evaluation performed %d builds, want 1", nl.Builds())
	}
	for i := 0; i < 10; i++ {
		nl.Forces(s.P, s.Pos, acc)
	}
	if nl.Builds() != 1 {
		t.Fatalf("no-motion run performed %d builds, want 1", nl.Builds())
	}

	// One atom, one axis, just past the skin/2 threshold.
	s.Pos.Set(17, Wrap(s.Pos.At(17).Add(vec.V3[float64]{X: skin/2 + 1e-6}), s.P.Box))
	nl.Forces(s.P, s.Pos, acc)
	if nl.Builds() != 2 {
		t.Fatalf("super-threshold move performed %d builds, want exactly 2", nl.Builds())
	}
	nl.Forces(s.P, s.Pos, acc)
	if nl.Builds() != 2 {
		t.Fatalf("repeat evaluation after rebuild performed %d builds, want 2", nl.Builds())
	}
}

// TestBuildN2MatchesLegacyOnLattice anchors the reworked build to the
// physics tests' configuration: on the standard FCC state the
// cell-binned list must reproduce the O(N²) list exactly, and the
// forces evaluated over both must be bitwise equal.
func TestBuildN2MatchesLegacyOnLattice(t *testing.T) {
	// 864 atoms: box ≈ 10.1, so box/(cutoff+skin) ≈ 3.5 — big enough
	// for the 3×3×3 grid floor the cell-binned path needs.
	s := makeSystem(t, 864, false)
	ref, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref.BuildN2(s.P, s.Pos)
	got.Build(s.P, s.Pos)
	if !got.binned() {
		t.Fatal("standard state should take the cell-binned path")
	}
	checkSamePairs(t, ref, got, s.N(), "lattice")

	accRef := MakeCoords[float64](s.N())
	accGot := MakeCoords[float64](s.N())
	peRef := ref.Forces(s.P, s.Pos, accRef)
	peGot := got.Forces(s.P, s.Pos, accGot)
	if peRef != peGot {
		t.Fatalf("PE not bitwise equal: %v vs %v", peRef, peGot)
	}
	for i := 0; i < accRef.Len(); i++ {
		if accRef.At(i) != accGot.At(i) {
			t.Fatalf("force %d not bitwise equal: %+v vs %+v", i, accRef.At(i), accGot.At(i))
		}
	}
}
