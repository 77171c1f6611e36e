package md

import (
	"fmt"
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
func checkSamePairs(t *testing.T, want, got *NeighborList[float64], n int, label string) {
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
		if got.gridOK {
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
	if !nl.gridOK {
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
	if !got.gridOK {
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
