package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/md"
)

// checkPacked asserts nl's rows are capacity-clamped and that
// PairCount, summed over the shard arenas, equals the rows' total.
func checkPacked(t *testing.T, nl *md.NeighborList[float64], n int, label string) {
	t.Helper()
	total := 0
	for i := 0; i < n; i++ {
		row := nl.Neighbors(i)
		if cap(row) != len(row) {
			t.Fatalf("%s: row %d has cap %d, len %d", label, i, cap(row), len(row))
		}
		total += len(row)
	}
	if got := nl.PairCount(); got != total {
		t.Fatalf("%s: PairCount %d, rows hold %d", label, got, total)
	}
}

// TestPackedRowsAcrossWorkers builds one geometry, a 2048-atom
// lattice on a grid, at 1, 2, 3 and 8 workers, each list built twice
// (the second build sizes its arenas from the first's counts): every
// list holds the serial Build's rows, packed, and its PairCount, summed
// over the shard arenas, is their total.
func TestPackedRowsAcrossWorkers(t *testing.T) {
	st, p := makeState(t, 2048)
	pos := md.CoordsFromV3(st.Pos)
	ref, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref.Build(p, pos)
	for _, w := range []int{1, 2, 3, 8} {
		nl, err := md.NewNeighborList[float64](0.4)
		if err != nil {
			t.Fatal(err)
		}
		e := New[float64](w)
		for build := 1; build <= 2; build++ {
			if err := e.BuildPairlist(nl, p, pos); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d build %d", w, build)
			samePairs(t, ref, nl, pos.Len(), label)
			checkPacked(t, nl, pos.Len(), label)
		}
		e.Close()
	}
}

// TestCancelledBuildRebuildsBeforeForces pins that a list whose
// rebuild was abandoned is never scored. The abandoned build runs at
// the positions the list was last built at, so only the build itself
// can make the list stale: the next force evaluation must rebuild, and
// its forces must equal a fresh list's bit for bit.
func TestCancelledBuildRebuildsBeforeForces(t *testing.T) {
	st, p := makeState(t, 2048)
	pos := md.CoordsFromV3(st.Pos)
	nl, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	e := New[float64](2)
	defer e.Close()
	if err := e.BuildPairlist(nl, p, pos); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	if err := e.BuildPairlist(nl, p, pos); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	if !nl.Stale(p, pos) {
		t.Fatal("list not stale after an abandoned build at its own positions")
	}

	e.SetContext(nil)
	acc := md.MakeCoords[float64](pos.Len())
	pe, err := e.ForcesPairlist(nl, p, pos, acc)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Builds() != 2 {
		t.Fatalf("builds = %d after the evaluation, want 2 (it must rebuild)", nl.Builds())
	}
	fresh, err := md.NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	want := md.MakeCoords[float64](pos.Len())
	wantPE, err := e.ForcesPairlist(fresh, p, pos, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pe) != math.Float64bits(wantPE) {
		t.Fatalf("PE %v after the abandoned build, fresh list %v", pe, wantPE)
	}
	for i := 0; i < pos.Len(); i++ {
		if acc.At(i) != want.At(i) {
			t.Fatalf("atom %d: acceleration %v, fresh list %v", i, acc.At(i), want.At(i))
		}
	}
}
