package md

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestNeighborListRejectsBadSkin(t *testing.T) {
	if _, err := NewNeighborList[float64](0); err == nil {
		t.Fatal("accepted zero skin")
	}
	if _, err := NewNeighborList[float64](-0.5); err == nil {
		t.Fatal("accepted negative skin")
	}
}

func TestNeighborListMatchesReference(t *testing.T) {
	s := makeSystem(t, 108, false)
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	accRef := MakeCoords[float64](s.N())
	accNL := MakeCoords[float64](s.N())
	peRef := ComputeForces(s.P, s.Pos, accRef)
	peNL := nl.Forces(s.P, s.Pos, accNL)
	// Bitwise, not to rounding: the list sums the same pairs in the same
	// order, which NewSystem and the row-path observables rely on.
	if math.Float64bits(peRef) != math.Float64bits(peNL) {
		t.Fatalf("PE mismatch: ref %v, pairlist %v", peRef, peNL)
	}
	for i := 0; i < accRef.Len(); i++ {
		if accRef.At(i) != accNL.At(i) {
			t.Fatalf("acc mismatch at %d: %+v vs %+v", i, accRef.At(i), accNL.At(i))
		}
	}
}

func TestNeighborListTrajectoryMatches(t *testing.T) {
	// Integrating with the pairlist must reproduce the reference
	// trajectory (the list only skips provably non-interacting pairs).
	ref := makeSystem(t, 64, false)
	opt := ref.Clone()
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 50
	for i := 0; i < steps; i++ {
		ref.Step()
		opt.StepWith(func() float64 { return nl.Forces(opt.P, opt.Pos, opt.Acc) })
	}
	for i := 0; i < ref.N(); i++ {
		if d := ref.Pos.At(i).Sub(opt.Pos.At(i)).Norm(); d > 1e-9 {
			t.Fatalf("trajectories diverged at atom %d by %v", i, d)
		}
	}
	if nl.Builds() >= nl.Queries() {
		t.Fatalf("pairlist rebuilt on every query (%d builds / %d queries); skin logic broken",
			nl.Builds(), nl.Queries())
	}
}

func TestNeighborListStaleness(t *testing.T) {
	s := makeSystem(t, 32, false)
	nl, err := NewNeighborList[float64](0.5)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(s.P, s.Pos)
	if nl.Stale(s.P, s.Pos) {
		t.Fatal("fresh list reported stale")
	}
	// Move one atom just under the threshold: still fresh.
	moved := MakeCoords[float64](s.N())
	moved.CopyFrom(s.Pos)
	moved.Set(3, Wrap(moved.At(3).Add(vec.V3[float64]{X: 0.24}), s.P.Box))
	if nl.Stale(s.P, moved) {
		t.Fatal("list stale after sub-threshold move")
	}
	// Past skin/2: stale.
	moved.Set(3, Wrap(s.Pos.At(3).Add(vec.V3[float64]{X: 0.26}), s.P.Box))
	if !nl.Stale(s.P, moved) {
		t.Fatal("list not stale after super-threshold move")
	}
}

func TestNeighborListStaleOnResize(t *testing.T) {
	s := makeSystem(t, 32, false)
	nl, err := NewNeighborList[float64](0.5)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(s.P, s.Pos)
	half := Coords[float64]{X: s.Pos.X[:16], Y: s.Pos.Y[:16], Z: s.Pos.Z[:16]}
	if !nl.Stale(s.P, half) {
		t.Fatal("list not stale after atom-count change")
	}
}

func TestNeighborListPairCount(t *testing.T) {
	s := makeSystem(t, 108, false)
	nl, err := NewNeighborList[float64](0.3)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(s.P, s.Pos)
	full := s.N() * (s.N() - 1) / 2
	got := nl.PairCount()
	if got <= 0 || got >= full {
		t.Fatalf("pair count %d not in (0, %d); list prunes nothing", got, full)
	}
}
