package md

import (
	"math"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// virialN2 is the all-pairs virial scan used before the virial moved
// onto neighbor-list rows: the oracle the row path is pinned against, the
// way BuildN2 serves the build.
func virialN2(p Params[float64], pos Coords[float64]) float64 {
	rc2 := p.Cutoff * p.Cutoff
	var w float64
	n := pos.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := MinImage(pos.At(i).Sub(pos.At(j)), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			_, f := NewLJ(p).Pair(r2)
			w += f * r2
		}
	}
	return w
}

// accumulateN2 is the all-pairs RDF scan Accumulate ran before it
// moved onto neighbor-list rows (with the same last-bin clamp).
func accumulateN2(r *RDF, pos Coords[float64]) {
	n := pos.Len()
	dr := r.rMax / float64(len(r.bins))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := MinImage(pos.At(i).Sub(pos.At(j)), r.box)
			dist := d.Norm()
			if dist < r.rMax {
				r.bins[min(int(dist/dr), len(r.bins)-1)] += 2
			}
		}
	}
	r.frames++
	r.atoms = n
}

// rowsCase is one input the row-path pins run on.
type rowsCase struct {
	name        string
	box, cutoff float64
	pos         []vec.V3[float64]
	grid        bool // whether a cutoff-radius list build takes the cell grid
}

func fccPositions(t *testing.T, n int) ([]vec.V3[float64], float64) {
	t.Helper()
	st, err := lattice.Generate(lattice.Config{
		N: n, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.Pos, st.Box
}

// rowsCases covers the FCC lattice, a jittered lattice, uniform random
// positions and coordinates at exactly 0 and just below the box, each
// in boxes that take the cell-grid build and boxes that fall back to
// the row scan.
func rowsCases(t *testing.T) []rowsCase {
	t.Helper()
	rng := xrand.New(29)
	random := func(n int, box float64) []vec.V3[float64] {
		return randomPositions(rng, n, box).V3s()
	}

	fccGrid, boxGrid := fccPositions(t, 864)   // box ≈ 10.1: 4 cells per edge
	fccSmall, boxSmall := fccPositions(t, 256) // box ≈ 6.7: below 3 cells
	jitter, boxJitter := fccPositions(t, 500)  // box ≈ 8.4: 3 cells per edge
	jittered := make([]vec.V3[float64], len(jitter))
	for i, p := range jitter {
		d := vec.V3[float64]{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}
		jittered[i] = Wrap(p.Add(d.Scale(0.3)), boxJitter)
	}
	edges := random(300, 9)
	below := math.Nextafter(9, 0)
	for k := 0; k < 40; k += 4 {
		edges[k] = vec.V3[float64]{X: 0, Y: edges[k].Y, Z: below}
		edges[k+1] = vec.V3[float64]{X: below, Y: 0, Z: 0}
		edges[k+2] = vec.V3[float64]{X: below, Y: below, Z: below}
		edges[k+3] = vec.V3[float64]{X: 0, Y: 0, Z: edges[k+3].Z}
	}

	return []rowsCase{
		{"fcc-grid", boxGrid, 2.5, fccGrid, true},
		{"fcc-fallback", boxSmall, 2.5, fccSmall, false},
		{"jittered-grid", boxJitter, 2.5, jittered, true},
		{"random-grid", 9, 2.5, random(400, 9), true},
		{"random-fallback", 6, 2.5, random(120, 6), false},
		{"edges-grid", 9, 2.5, edges, true},
		{"edges-fallback", 9, 3.2, edges, false},
	}
}

// params returns the case's parameters, checking that a list at the
// cutoff radius takes the build path the case is named for.
func (c rowsCase) params(t *testing.T) Params[float64] {
	t.Helper()
	p := Params[float64]{Box: c.box, Cutoff: c.cutoff, Dt: 0.004}
	if got := scanList(p, CoordsFromV3(c.pos)).gridOK; got != c.grid {
		t.Fatalf("%s: cell-grid build %v, want %v", c.name, got, c.grid)
	}
	return p
}

// bits returns x's IEEE bit pattern at its own precision.
func bits[T vec.Float](x T) uint64 {
	if f, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(x))
}

func checkBitsEqual[T vec.Float](t *testing.T, what string, got, want T) {
	t.Helper()
	if bits(got) != bits(want) {
		t.Fatalf("%s: %v (bits %x), want %v (bits %x)", what, got, bits(got), want, bits(want))
	}
}

// checkNewSystemBitwise builds a System at precision T from the case's
// positions and pins its PE and every acceleration component, bit for
// bit, against ComputeForces on the same wrapped positions.
func checkNewSystemBitwise[T vec.Float](t *testing.T, c rowsCase) {
	t.Helper()
	st := &lattice.State{Box: c.box, Pos: c.pos, Vel: make([]vec.V3[float64], len(c.pos))}
	s, err := NewSystem(st, Params[T]{Box: T(c.box), Cutoff: T(c.cutoff), Dt: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	acc := MakeCoords[T](s.N())
	pe := ComputeForces(s.P, s.Pos, acc)
	checkBitsEqual(t, c.name+" PE", s.PE, pe)
	checkCoordsBitsEqual(t, c.name, s.Acc, acc)
}

func TestNewSystemMatchesComputeForcesBitwise(t *testing.T) {
	for _, c := range rowsCases(t) {
		c.params(t)
		t.Run(c.name+"/f64", func(t *testing.T) { checkNewSystemBitwise[float64](t, c) })
		t.Run(c.name+"/f32", func(t *testing.T) { checkNewSystemBitwise[float32](t, c) })
	}
}

func TestNewSystemNaNPoisonsForces(t *testing.T) {
	pos, box := fccPositions(t, 108)
	pos[5].Y = math.NaN()
	s, err := NewSystem(&lattice.State{Box: box, Pos: pos, Vel: make([]vec.V3[float64], len(pos))},
		Params[float64]{Box: box, Cutoff: 2.5, Dt: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.PE) || !math.IsNaN(s.Acc.At(5).X) {
		t.Fatalf("NaN coordinate gave PE %v, Acc[5] %+v; want NaN as ComputeForces gives", s.PE, s.Acc.At(5))
	}
}

func TestVirialMatchesOracleBitwise(t *testing.T) {
	for _, c := range rowsCases(t) {
		p := c.params(t)
		pos := CoordsFromV3(c.pos)
		checkBitsEqual(t, c.name+" virial", VirialOver(nil, p, pos), virialN2(p, pos))

		// A live list with a real skin, as mdrun hands over, scores the
		// same bits.
		nl, err := NewNeighborList[float64](0.4)
		if err != nil {
			t.Fatal(err)
		}
		checkBitsEqual(t, c.name+" virial over a live list", VirialOver(nl, p, pos), virialN2(p, pos))
	}
}

func TestRDFMatchesOracleBitwise(t *testing.T) {
	for _, c := range rowsCases(t) {
		p := c.params(t)
		pos := CoordsFromV3(c.pos)
		for _, rMax := range []float64{c.cutoff, 0.99 * c.box / 2} {
			got, err := NewRDF(c.box, rMax, 37)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewRDF(c.box, rMax, 37)
			if err != nil {
				t.Fatal(err)
			}
			for frame := 0; frame < 2; frame++ {
				if err := got.Accumulate(pos); err != nil {
					t.Fatal(err)
				}
				accumulateN2(want, pos)
			}
			checkSameBins(t, c.name, got, want)

			if rMax <= c.cutoff {
				// rMax within the cutoff: a live force list serves too.
				nl, err := NewNeighborList[float64](0.4)
				if err != nil {
					t.Fatal(err)
				}
				over, err := NewRDF(c.box, rMax, 37)
				if err != nil {
					t.Fatal(err)
				}
				for frame := 0; frame < 2; frame++ {
					if err := over.AccumulateOver(nl, p, pos); err != nil {
						t.Fatal(err)
					}
				}
				checkSameBins(t, c.name+" over a live list", over, want)
			}
		}
	}
}

func checkSameBins(t *testing.T, label string, got, want *RDF) {
	t.Helper()
	if got.frames != want.frames || got.atoms != want.atoms {
		t.Fatalf("%s: %d frames of %d atoms, want %d of %d", label, got.frames, got.atoms, want.frames, want.atoms)
	}
	for b := range want.bins {
		if got.bins[b] != want.bins[b] {
			t.Fatalf("%s (rMax %v): bin %d = %d, want %d", label, want.rMax, b, got.bins[b], want.bins[b])
		}
	}
	_, g := got.Result()
	_, w := want.Result()
	for b := range w {
		checkBitsEqual(t, label+" g(r)", g[b], w[b])
	}
}

func TestRDFRejectsListThatDoesNotReach(t *testing.T) {
	pos, box := fccPositions(t, 864)
	p := Params[float64]{Box: box, Cutoff: 2.5, Dt: 0.004}
	nl, err := NewNeighborList[float64](0.4)
	if err != nil {
		t.Fatal(err)
	}
	far, err := NewRDF(box, 0.99*box/2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := far.AccumulateOver(nl, p, CoordsFromV3(pos)); err == nil {
		t.Fatal("RDF past the list radius accepted")
	}
	other, err := NewRDF(box+1, 2.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AccumulateOver(nl, p, CoordsFromV3(pos)); err == nil {
		t.Fatal("RDF of another box accepted")
	}
}
