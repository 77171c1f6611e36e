package md

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
)

// TestPackedRowsClampedAndIsolated pins the packed layout: every row
// is a slice of its shard's arena with no spare capacity, so an append
// to one row reallocates instead of writing over the next row, which
// sits right after it in the arena.
func TestPackedRowsClampedAndIsolated(t *testing.T) {
	for _, build := range []struct {
		name string
		fn   func(nl *NeighborList[float64], p Params[float64], pos Coords[float64])
	}{
		{"Build", (*NeighborList[float64]).Build},
		{"BuildN2", (*NeighborList[float64]).BuildN2},
	} {
		t.Run(build.name, func(t *testing.T) {
			src, box := fccPositions(t, 500)
			pos := CoordsFromV3(src)
			p := Params[float64]{Box: box, Cutoff: 2.5}
			nl, err := NewNeighborList[float64](0.3)
			if err != nil {
				t.Fatal(err)
			}
			build.fn(nl, p, pos)
			total := 0
			for i := range pos.Len() {
				row := nl.Neighbors(i)
				if cap(row) != len(row) {
					t.Fatalf("row %d: cap %d, len %d", i, cap(row), len(row))
				}
				total += len(row)
			}
			if got := nl.PairCount(); got != total {
				t.Fatalf("PairCount %d, rows hold %d", got, total)
			}
			next := append([]int32(nil), nl.Neighbors(1)...)
			_ = append(nl.Neighbors(0), -1, -2, -3)
			for k, j := range nl.Neighbors(1) {
				if j != next[k] {
					t.Fatalf("appending to row 0 changed row 1 entry %d: %d, want %d", k, j, next[k])
				}
			}
		})
	}
}

// arenaCap is the total capacity of the list's shard arenas.
func (nl *NeighborList[T]) arenaCap() int {
	c := 0
	for _, a := range nl.arenas {
		c += cap(a)
	}
	return c
}

// TestPackedArenaTracksPairCount runs a melting 2048-atom lattice for
// 300 steps and pins that the arenas stay sized to the list: their
// capacity is at most 9/8 of the pair count plus each shard's slack
// (rowSlack, and the count/16 of sizeArenas's band above its target).
// The first build sizes the arena
// from the density estimate in one allocation, so it must not have
// grown past that estimate.
func TestPackedArenaTracksPairCount(t *testing.T) {
	st, err := lattice.Generate(lattice.Config{
		N: 2048, Density: 0.8442, Temperature: 2.0, Kind: lattice.FCC, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(st, Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004, Shifted: true})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NewNeighborList[float64](0.3)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(sys.P, sys.Pos)
	est := pairEstimate(sys.N(), sys.P.Box, sys.P.Cutoff+nl.Skin)
	if want := est + est/8 + rowSlack; nl.arenaCap() != want {
		t.Fatalf("first build: arena capacity %d, want the estimate's %d (%d estimated pairs, %d built)",
			nl.arenaCap(), want, est, nl.PairCount())
	}
	for range 300 {
		sys.StepWith(func() float64 { return nl.Forces(sys.P, sys.Pos, sys.Acc) })
	}
	if nl.Builds() < 10 {
		t.Fatalf("only %d builds in 300 steps; the test wants a list that rebuilds as the lattice melts", nl.Builds())
	}
	count, capacity := nl.PairCount(), nl.arenaCap()
	if limit := count + count/8 + count/16 + len(nl.arenas)*rowSlack; capacity > limit {
		t.Fatalf("after %d builds: arena capacity %d for %d pairs, want at most %d", nl.Builds(), capacity, count, limit)
	}
}

// TestArenaGrowsMidBuild packs 300 atoms into one corner of a box the
// density estimate reads as dilute, so every pair is in range and the
// arena sized from the estimate overflows several times mid-build.
// Rows written before each growth stay where they were and must still
// read back as the reference scan's; a second build sizes from the
// first's count and fits without growing.
func TestArenaGrowsMidBuild(t *testing.T) {
	const n = 300
	pos := MakeCoords[float64](n)
	for i := range n {
		f := float64(i)
		pos.Set(i, vec.V3[float64]{X: math.Mod(f*0.37, 1), Y: math.Mod(f*0.61, 1), Z: math.Mod(f*0.83, 1)})
	}
	p := Params[float64]{Box: 12, Cutoff: 2.5}
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref.BuildN2(p, pos)
	if est := pairEstimate(n, p.Box, p.Cutoff+nl.Skin); est+est/8+rowSlack >= n*(n-1)/2 {
		t.Fatalf("estimate %d leaves room for all %d pairs; the arena would not grow", est, n*(n-1)/2)
	}
	nl.Build(p, pos)
	checkSamePairs(t, ref, nl, n, "grown mid-build")
	if nl.PairCount() != n*(n-1)/2 {
		t.Fatalf("PairCount %d, want all %d pairs", nl.PairCount(), n*(n-1)/2)
	}
	grown := nl.arenaCap()
	nl.Build(p, pos)
	checkSamePairs(t, ref, nl, n, "second build")
	if c := nl.arenaCap(); c > grown {
		t.Fatalf("second build grew the arena from %d to %d", grown, c)
	}
}
