package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/md"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// buildList builds a fresh neighbor list for pos through an engine of
// the given worker count and returns it.
func buildList(t *testing.T, workers int, p md.Params[float64], pos md.Coords[float64], skin float64) *md.NeighborList[float64] {
	t.Helper()
	nl, err := md.NewNeighborList[float64](skin)
	if err != nil {
		t.Fatal(err)
	}
	e := New[float64](workers)
	defer e.Close()
	if err := e.BuildPairlist(nl, p, pos); err != nil {
		t.Fatal(err)
	}
	return nl
}

// samePairs asserts two lists hold byte-identical rows.
func samePairs(t *testing.T, want, got *md.NeighborList[float64], n int, label string) {
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

// TestBuildPairlistWorkersBitwise is the parallel half of the build
// property test: for randomized geometries, the sharded build at
// Workers ∈ {1, 2, 3, 4, 8} produces byte-identical pairs slices to
// the serial Build. Forces evaluated over the lists are then bitwise
// equal by construction.
func TestBuildPairlistWorkersBitwise(t *testing.T) {
	rng := xrand.New(21)
	// The last two trials are large enough that BuildPairlist shards
	// the cell-ordered atoms instead of building inline
	// (serialBuildAtoms). In the last, every atom sits in one cell, so
	// each shard boundary falls inside a cell and that shard gathers
	// the cell's candidates on its own.
	for trial := 0; trial < 10; trial++ {
		box := 6 + 8*rng.Float64()
		skin := 0.2 + 0.4*rng.Float64()
		n := 100 + rng.Intn(400)
		span := box
		switch trial {
		case 8:
			n = 2 * serialBuildAtoms
			box = math.Cbrt(float64(n) / 0.8)
			span = box
		case 9:
			n = serialBuildAtoms + 76
			box, span = 12, 1
		}
		pos := md.MakeCoords[float64](n)
		for i := 0; i < n; i++ {
			pos.Set(i, vec.V3[float64]{
				X: rng.Float64() * span,
				Y: rng.Float64() * span,
				Z: rng.Float64() * span,
			})
		}
		p := md.Params[float64]{Box: box, Cutoff: 1.8, Dt: 0.001}

		serial, err := md.NewNeighborList[float64](skin)
		if err != nil {
			t.Fatal(err)
		}
		serial.Build(p, pos)
		for _, w := range []int{1, 2, 3, 4, 8} {
			many := buildList(t, w, p, pos, skin)
			samePairs(t, serial, many, n, fmt.Sprintf("trial %d: workers=%d vs serial Build", trial, w))
		}
	}
}

// TestBuildPairlistForcesBitwise pins the consequence the determinism
// argument rests on: identical pair lists mean identical summation
// order, so the serial Forces over a parallel-built list is bitwise
// equal to the serial Forces over a serially-built one.
func TestBuildPairlistForcesBitwise(t *testing.T) {
	st, p := makeState(t, 500)
	serial, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	pos := md.CoordsFromV3(st.Pos)
	serial.Build(p, pos)
	par := buildList(t, 8, p, pos, 0.4)

	accS := md.MakeCoords[float64](pos.Len())
	accP := md.MakeCoords[float64](pos.Len())
	peS := serial.Forces(p, pos, accS)
	peP := par.Forces(p, pos, accP)
	if peS != peP {
		t.Fatalf("PE differs: serial-built %v, parallel-built %v", peS, peP)
	}
	for i := 0; i < accS.Len(); i++ {
		if accS.At(i) != accP.At(i) {
			t.Fatalf("force %d differs: %+v vs %+v", i, accS.At(i), accP.At(i))
		}
	}
}

// TestBuildPairlistCancelled pins the torn-build contract: a build
// under a cancelled SetContext context returns the context error,
// leaves the list stale (so nothing trusts the torn rows), and the
// same list builds cleanly once the context is cleared.
func TestBuildPairlistCancelled(t *testing.T) {
	st, p := makeState(t, 500)
	pos := md.CoordsFromV3(st.Pos)
	nl, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	e := New[float64](4)
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	err = e.BuildPairlist(nl, p, pos)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	if nl.Builds() != 0 {
		t.Fatalf("cancelled build committed (builds=%d)", nl.Builds())
	}
	if !nl.Stale(p, pos) {
		t.Fatal("list not stale after an abandoned build")
	}

	e.SetContext(nil)
	if err := e.BuildPairlist(nl, p, pos); err != nil {
		t.Fatal(err)
	}
	if nl.Builds() != 1 {
		t.Fatalf("recovery build count %d, want 1", nl.Builds())
	}
	ref, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref.Build(p, pos)
	samePairs(t, ref, nl, pos.Len(), "post-cancellation rebuild")
}

// TestBuildPairlistDesignatedImageShards runs the sharded build at
// Workers ∈ {1, 2, 3, 8} on grids of three and four cells per edge,
// where every home cell takes the designated images, and on a one-cell
// box, which keeps the minimum-image loop, and asserts each list
// equals the reference O(N²) BuildN2. Atoms sit on cell faces, at 0
// and at the largest float below the box as well as at random.
func TestBuildPairlistDesignatedImageShards(t *testing.T) {
	rng := xrand.New(23)
	for _, c := range []struct {
		name           string
		box, cut, skin float64
		cells          int
	}{
		{"3 cells per edge", 9, 2.5, 0.5, 3},
		{"4 cells per edge", 12, 2.5, 0.5, 4},
		{"one-cell box", 7, 2.5, 0.4, 1},
	} {
		n := serialBuildAtoms + 88
		pos := md.MakeCoords[float64](n)
		for i := 0; i < n; i++ {
			pos.Set(i, vec.V3[float64]{X: rng.Float64() * c.box, Y: rng.Float64() * c.box, Z: rng.Float64() * c.box})
		}
		for i := 0; i < n; i += 3 {
			face := c.box * float64(rng.Intn(c.cells)) / float64(c.cells)
			pos.X[i] = face
			pos.Y[i+1] = math.Nextafter(c.box, 0)
		}
		p := md.Params[float64]{Box: c.box, Cutoff: c.cut, Dt: 0.001}
		ref, err := md.NewNeighborList[float64](c.skin)
		if err != nil {
			t.Fatal(err)
		}
		ref.BuildN2(p, pos)
		for _, w := range []int{1, 2, 3, 8} {
			got := buildList(t, w, p, pos, c.skin)
			samePairs(t, ref, got, n, fmt.Sprintf("%s: workers=%d vs BuildN2", c.name, w))
		}
	}
}
