package md

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
	"repro/internal/xrand"
)

func TestRDFValidation(t *testing.T) {
	if _, err := NewRDF(0, 1, 10); err == nil {
		t.Fatal("zero box accepted")
	}
	if _, err := NewRDF(10, 0, 10); err == nil {
		t.Fatal("zero rMax accepted")
	}
	if _, err := NewRDF(10, 1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewRDF(10, 6, 10); err == nil {
		t.Fatal("rMax beyond box/2 accepted")
	}
}

func TestRDFIdealGasIsFlat(t *testing.T) {
	// For uniformly random (ideal gas) positions, g(r) ~ 1 everywhere.
	const box = 12.0
	rdf, err := NewRDF(box, box/2*0.99, 24)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	const n, frames = 400, 20
	for f := 0; f < frames; f++ {
		pos := MakeCoords[float64](n)
		for i := 0; i < n; i++ {
			pos.Set(i, vec.V3[float64]{X: box * rng.Float64(), Y: box * rng.Float64(), Z: box * rng.Float64()})
		}
		rdf.Accumulate(pos)
	}
	if rdf.Frames() != frames {
		t.Fatalf("Frames = %d", rdf.Frames())
	}
	centers, g := rdf.Result()
	// Ignore the first bins (few counts, noisy).
	for b := 4; b < len(g); b++ {
		if math.Abs(g[b]-1) > 0.25 {
			t.Fatalf("ideal-gas g(%v) = %v, want ~1", centers[b], g[b])
		}
	}
}

func TestRDFLiquidHasFirstPeak(t *testing.T) {
	// An equilibrated LJ liquid shows a first peak near r = 1.1 sigma
	// with g > 1.5, and g ~ 0 inside the core.
	s := makeSystem(t, 500, false)
	s.Run(50)
	rdf, err := NewRDF(s.P.Box, 2.5, 50)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 10; f++ {
		s.Run(5)
		rdf.Accumulate(s.Pos)
	}
	centers, g := rdf.Result()
	var peak float64
	var peakR float64
	coreMax := 0.0
	for b := range g {
		if centers[b] < 0.8 && g[b] > coreMax {
			coreMax = g[b]
		}
		if g[b] > peak {
			peak, peakR = g[b], centers[b]
		}
	}
	if coreMax > 0.1 {
		t.Fatalf("g(r) inside the repulsive core = %v, want ~0", coreMax)
	}
	if peak < 1.5 || peakR < 0.9 || peakR > 1.4 {
		t.Fatalf("first peak g=%v at r=%v, want >1.5 near 1.1", peak, peakR)
	}
}

func TestRDFEmptyResult(t *testing.T) {
	rdf, err := NewRDF(10, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, g := rdf.Result()
	for _, v := range g {
		if v != 0 {
			t.Fatal("non-zero g(r) with no frames")
		}
	}
}

func TestMSDStationaryIsZero(t *testing.T) {
	s := makeSystem(t, 64, false)
	msd := NewMSD(s.P.Box, s.Pos)
	for i := 0; i < 5; i++ {
		if err := msd.Track(s.Pos); err != nil {
			t.Fatal(err)
		}
	}
	if msd.Value() != 0 {
		t.Fatalf("MSD of a frozen system = %v", msd.Value())
	}
}

func TestMSDGrowsInLiquid(t *testing.T) {
	s := makeSystem(t, 256, false)
	msd := NewMSD(s.P.Box, s.Pos)
	var prev float64
	for block := 0; block < 4; block++ {
		for i := 0; i < 25; i++ {
			s.Step()
			if err := msd.Track(s.Pos); err != nil {
				t.Fatal(err)
			}
		}
		cur := msd.Value()
		if cur <= prev {
			t.Fatalf("MSD not increasing: %v -> %v at block %d", prev, cur, block)
		}
		prev = cur
	}
}

func TestMSDHandlesBoundaryCrossing(t *testing.T) {
	// One atom drifting at constant velocity through the boundary: MSD
	// must grow quadratically, not reset at the wrap.
	const box = 10.0
	pos := CoordsFromV3([]vec.V3[float64]{{X: 9.5, Y: 5, Z: 5}})
	msd := NewMSD(box, pos)
	const step = 0.2
	for i := 1; i <= 20; i++ {
		pos.Set(0, Wrap(vec.V3[float64]{X: 9.5 + step*float64(i), Y: 5, Z: 5}, box))
		if err := msd.Track(pos); err != nil {
			t.Fatal(err)
		}
	}
	want := (step * 20) * (step * 20)
	if math.Abs(msd.Value()-want) > 1e-9 {
		t.Fatalf("MSD across boundary = %v, want %v", msd.Value(), want)
	}
}

func TestMSDSizeMismatch(t *testing.T) {
	msd := NewMSD(10, MakeCoords[float64](4))
	if err := msd.Track(MakeCoords[float64](3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestRDFSizeMismatch(t *testing.T) {
	rdf, err := NewRDF(10, 2.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	if err := rdf.Accumulate(randomPositions(rng, 40, 10)); err != nil {
		t.Fatal(err)
	}
	if err := rdf.Accumulate(randomPositions(rng, 39, 10)); err == nil {
		t.Fatal("size change accepted")
	}
	if rdf.Frames() != 1 {
		t.Fatalf("rejected frame was counted: %d frames", rdf.Frames())
	}
}

// TestRDFBinJustBelowRMax pins the last-bin clamp: a distance one ULP
// below rMax is inside the RDF, but dist/dr rounds up to the bin count
// for some bin counts (here 3 bins of rMax = 1).
func TestRDFBinJustBelowRMax(t *testing.T) {
	rdf, err := NewRDF(10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pos := CoordsFromV3([]vec.V3[float64]{{}, {X: math.Nextafter(1, 0)}})
	if err := rdf.Accumulate(pos); err != nil {
		t.Fatal(err)
	}
	if rdf.bins[2] != 2 {
		t.Fatalf("bins %v, want the pair in the last bin", rdf.bins)
	}
}

func TestVirialSignAtHighDensity(t *testing.T) {
	// A strongly compressed lattice is dominated by repulsion: positive
	// virial, positive pressure.
	s := makeSystemDensity(t, 256, 1.2)
	w := VirialOver(nil, s.P, s.Pos)
	if w <= 0 {
		t.Fatalf("virial at density 1.2 = %v, want > 0", w)
	}
	if p := Pressure(s.P, s.Pos, 0.7); p <= 0 {
		t.Fatalf("pressure at density 1.2 = %v, want > 0", p)
	}
}

func TestVirialNearZeroForDiluteGas(t *testing.T) {
	s := makeSystemDensity(t, 128, 0.05)
	vol := s.P.Box * s.P.Box * s.P.Box
	idealP := float64(s.N()) * 0.7 / vol
	p := Pressure(s.P, s.Pos, 0.7)
	if math.Abs(p-idealP) > 0.5*idealP {
		t.Fatalf("dilute pressure %v far from ideal %v", p, idealP)
	}
}

func makeSystemDensity(t *testing.T, n int, density float64) *System[float64] {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: n, Density: density, Temperature: 0.7, Kind: lattice.FCC, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params[float64]{Box: st.Box, Cutoff: 2.5, Dt: 0.004}
	if 2*p.Cutoff > p.Box {
		p.Cutoff = p.Box / 2 * 0.99
	}
	s, err := NewSystem(st, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
