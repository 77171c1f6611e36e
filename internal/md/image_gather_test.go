package md

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// buildMinImage builds nl on the grid Build uses but with the
// designated images switched off, so every home cell takes the
// minimum-image loop: the second arm the designated-image rows are
// compared against.
func buildMinImage[T vec.Float](nl *NeighborList[T], p Params[T], pos Coords[T]) {
	nl.BeginBuild(p, pos, 1)
	nl.grid.wrapped = false
	nl.BuildSpan(p, pos, 0, 0, pos.Len())
	nl.EndBuild(pos)
}

// faceCoords returns the coordinates on and one float either side of
// every cell face of a grid of d cells per edge in a box, kept inside
// [0, box): 0, the largest float below box, and each interior face.
func faceCoords(box float64, d int) []float64 {
	var xs []float64
	for k := 0; k <= d; k++ {
		f := box * float64(k) / float64(d)
		for _, x := range []float64{math.Nextafter(f, math.Inf(-1)), f, math.Nextafter(f, math.Inf(1))} {
			if x >= 0 && x < box {
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// imageCase is one geometry for the designated-image build, with the
// cells per edge its grid must take.
type imageCase struct {
	name string
	p    Params[float64]
	skin float64
	pos  Coords[float64]
	dims int
}

// imageCases returns grids of exactly three and four cells per edge,
// one whose cell width is the list radius to the last bit and one
// whose box is three radii only after rounding, each filled with
// random atoms plus atoms whose coordinates sit on cell faces, at 0
// and at the largest float below the box.
func imageCases() []imageCase {
	rng := xrand.New(31)
	var cases []imageCase
	for _, c := range []struct {
		name         string
		box, cut, sk float64
		dims         int
	}{
		{"3 cells, width = radius", 9, 2.5, 0.5, 3},
		{"3 cells, box = 3·radius rounded", 3 * (2.5 + 0.4), 2.5, 0.4, 3},
		{"3 cells, 3.05 radii", 3.05 * 2.9, 2.5, 0.4, 3},
		{"4 cells, width = radius", 12, 2.5, 0.5, 4},
		{"4 cells, 4.2 radii", 4.2 * 2.9, 2.5, 0.4, 4},
	} {
		faces := faceCoords(c.box, c.dims)
		pos := randomPositions(rng, 240, c.box)
		for k := range 160 {
			pick := func() float64 {
				if rng.Intn(4) == 0 {
					return rng.Float64() * c.box
				}
				return faces[rng.Intn(len(faces))]
			}
			pos.X[k], pos.Y[k], pos.Z[k] = pick(), pick(), pick()
		}
		cases = append(cases, imageCase{c.name, Params[float64]{Box: c.box, Cutoff: c.cut, Dt: 0.001}, c.sk, pos, c.dims})
	}
	return cases
}

// checkImageRows builds pos three ways, by the reference O(N²) scan,
// by Build and by the minimum-image loop on Build's grid, and asserts
// the rows agree. imaged says whether Build must have taken the
// designated images.
func checkImageRows[T vec.Float](t *testing.T, p Params[T], skin T, pos Coords[T], dims int, imaged bool, label string) {
	t.Helper()
	lists := [3]*NeighborList[T]{}
	for k := range lists {
		nl, err := NewNeighborList(skin)
		if err != nil {
			t.Fatal(err)
		}
		lists[k] = nl
	}
	ref, got, branch := lists[0], lists[1], lists[2]
	ref.BuildN2(p, pos)
	got.Build(p, pos)
	if got.grid.dims != dims || got.grid.wrapped != imaged {
		t.Fatalf("%s: grid %d cells per edge, designated images %v; want %d, %v",
			label, got.grid.dims, got.grid.wrapped, dims, imaged)
	}
	buildMinImage(branch, p, pos)
	checkSamePairs(t, ref, got, pos.Len(), label+": Build vs BuildN2")
	checkSamePairs(t, ref, branch, pos.Len(), label+": minimum-image loop vs BuildN2")
}

// TestDesignatedImageRowsMatchN2 is the differential test for the
// designated-image gather: on grids of three and four cells per edge,
// with atoms on cell faces, at 0 and just below the box, the rows
// Build gives equal BuildN2's and the minimum-image loop's, in float64
// and in float32.
func TestDesignatedImageRowsMatchN2(t *testing.T) {
	for _, c := range imageCases() {
		checkImageRows(t, c.p, c.skin, c.pos, c.dims, true, c.name)

		p32 := Params[float32]{Box: float32(c.p.Box), Cutoff: float32(c.p.Cutoff), Dt: float32(c.p.Dt)}
		pos32 := MakeCoords[float32](c.pos.Len())
		for i := range pos32.X {
			// Narrowing can round a coordinate up to the box; keep
			// every one inside it so the float32 build still takes the
			// designated images.
			pos32.X[i] = below32(c.pos.X[i], p32.Box)
			pos32.Y[i] = below32(c.pos.Y[i], p32.Box)
			pos32.Z[i] = below32(c.pos.Z[i], p32.Box)
		}
		// Narrowing can move box/radius across a whole number (the
		// rounded three-radius box is under three cells in float32),
		// so the float32 grid is whatever the sizing rule gives it.
		dims32 := max(1, buildGridDims(p32.Box, p32.Cutoff+float32(c.skin), pos32.Len()))
		checkImageRows(t, p32, float32(c.skin), pos32, dims32, dims32 >= 3, c.name+" (float32)")
	}
}

// below32 narrows x to float32, stepping down one float if narrowing
// rounded it up to box.
func below32(x float64, box float32) float32 {
	v := float32(x)
	if v >= box {
		v = math.Nextafter32(box, 0)
	}
	return v
}

// TestDesignatedImageFallbacks pins the inputs that must leave the
// designated images for the minimum-image loop and still match
// BuildN2: a coordinate below 0, one at the box edge, one a box out,
// a NaN, a home cell whose union outgrows the accept buffer, and a
// home atom that accepts more candidates than the buffer holds.
func TestDesignatedImageFallbacks(t *testing.T) {
	c := imageCases()[3]
	for _, tc := range []struct {
		name string
		edit func(pos Coords[float64])
	}{
		{"coordinate below 0", func(pos Coords[float64]) { pos.X[7] = -0.25 }},
		{"coordinate at the box edge", func(pos Coords[float64]) { pos.Y[11] = c.p.Box }},
		{"coordinate a box out", func(pos Coords[float64]) { pos.Z[3] += c.p.Box }},
		{"NaN coordinate", func(pos Coords[float64]) { pos.X[5] = math.NaN() }},
	} {
		pos := MakeCoords[float64](c.pos.Len())
		pos.CopyFrom(c.pos)
		tc.edit(pos)
		checkImageRows(t, c.p, c.skin, pos, c.dims, false, tc.name)
	}

	// One cell at the box corner holds more atoms than the accept
	// buffer, so its union and its neighbors' take the minimum-image
	// loop while the scattered atoms elsewhere take the designated
	// images, in the same build.
	rng := xrand.New(41)
	p := Params[float64]{Box: 40, Cutoff: 0.15, Dt: 0.001}
	const skin = 0.05
	pos := randomPositions(rng, acceptCap+300, p.Box)
	for i := 0; i < acceptCap+100; i++ {
		pos.X[i] = rng.Float64() * 1.2
		pos.Y[i] = rng.Float64() * 1.2
		pos.Z[i] = p.Box - rng.Float64()*1.2
	}
	nl, err := NewNeighborList(skin)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(p, pos)
	if nl.grid.span <= acceptCap {
		t.Fatalf("largest union bound %d does not exceed the accept buffer (%d)", nl.grid.span, acceptCap)
	}
	checkImageRows(t, p, skin, pos, nl.grid.dims, true, fmt.Sprintf("union past %d candidates", acceptCap))

	// A pile narrower than the list radius, so its first atom accepts
	// more candidates than the accept buffer holds. Only that atom's
	// row is built, which keeps the row table small; it must hold
	// every other atom.
	pile := MakeCoords[float64](acceptCap + 8)
	for i := range pile.X {
		pile.X[i], pile.Y[i], pile.Z[i] = 0.1*rng.Float64(), 0.1*rng.Float64(), p.Box-0.1*rng.Float64()
	}
	nl.BeginBuild(p, pile, 1)
	if !nl.grid.wrapped {
		t.Fatal("pile build does not take the designated images")
	}
	slot := slices.Index(nl.grid.order, 0)
	nl.BuildSpan(p, pile, 0, slot, slot+1)
	row := nl.Neighbors(0)
	if len(row) != pile.Len()-1 {
		t.Fatalf("pile: atom 0 has %d neighbors, want %d", len(row), pile.Len()-1)
	}
	for k, j := range row {
		if int(j) != k+1 {
			t.Fatalf("pile: atom 0 neighbor %d is %d, want %d", k, j, k+1)
		}
	}
}
