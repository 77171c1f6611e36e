package parallel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/md"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// chainGrid is the linked-chain cell layout the cell kernels ran over
// before they moved onto md.CellList's packed runs: heads[c] is the
// last atom binned into cell c and next[i] the atom binned before i,
// so a chain lists its cell's atoms in descending index order. Its two
// traversals are the oracles the packed kernels are pinned against,
// bit for bit.
type chainGrid struct {
	dims        int
	heads, next []int32
}

// buildChains bins pos the way the chain layout did: each coordinate
// is clamped into an edge cell (no periodic fold), and each atom is
// pushed onto the front of its cell's chain.
func buildChains(box float64, dims int, pos md.Coords[float64]) chainGrid {
	width := box / float64(dims)
	axis := func(x float64) int {
		c := int(x / width)
		if c < 0 {
			return 0
		}
		if c >= dims {
			return dims - 1
		}
		return c
	}
	g := chainGrid{dims: dims, heads: make([]int32, dims*dims*dims), next: make([]int32, pos.Len())}
	for c := range g.heads {
		g.heads[c] = -1
	}
	for i := 0; i < pos.Len(); i++ {
		p := pos.At(i)
		c := (axis(p.X)*dims+axis(p.Y))*dims + axis(p.Z)
		g.next[i] = g.heads[c]
		g.heads[c] = int32(i)
	}
	return g
}

// chainHalfShell is the half-shell offset table the serial chain
// traversal walked, in its order.
var chainHalfShell = [13][3]int{
	{1, 0, 0},
	{1, 1, 0}, {0, 1, 0}, {-1, 1, 0},
	{1, 0, 1}, {0, 0, 1}, {-1, 0, 1},
	{1, 1, 1}, {0, 1, 1}, {-1, 1, 1},
	{1, -1, 1}, {0, -1, 1}, {-1, -1, 1},
}

// forcesHalfShell is the serial chain traversal: each atom pairs with
// the rest of its own chain and with the chains of the 13 half-shell
// neighbor cells, scattering both sides.
func (g chainGrid) forcesHalfShell(p md.Params[float64], pos, acc md.Coords[float64]) float64 {
	acc.Zero()
	rc2 := p.Cutoff * p.Cutoff
	pair := func(i, j int32, pi vec.V3[float64]) float64 {
		dv := md.MinImage(pi.Sub(pos.At(int(j))), p.Box)
		r2 := dv.Norm2()
		if r2 >= rc2 || r2 == 0 {
			return 0
		}
		v, f := md.LJPair(p, r2)
		fd := dv.Scale(f)
		acc.Add(int(i), fd)
		acc.Sub(int(j), fd)
		return v
	}
	wrap := func(cx, cy, cz int) int {
		d := g.dims
		return (((cx%d+d)%d)*d+(cy%d+d)%d)*d + (cz%d+d)%d
	}
	var pe float64
	d := g.dims
	for cx := 0; cx < d; cx++ {
		for cy := 0; cy < d; cy++ {
			for cz := 0; cz < d; cz++ {
				for i := g.heads[(cx*d+cy)*d+cz]; i >= 0; i = g.next[i] {
					pi := pos.At(int(i))
					for j := g.next[i]; j >= 0; j = g.next[j] {
						pe += pair(i, j, pi)
					}
					for _, off := range chainHalfShell {
						for j := g.heads[wrap(cx+off[0], cy+off[1], cz+off[2])]; j >= 0; j = g.next[j] {
							pe += pair(i, j, pi)
						}
					}
				}
			}
		}
	}
	return pe
}

// forcesGather is the sharded chain gather for the given worker count:
// worker w owns cells [w·C/workers, (w+1)·C/workers), every atom
// gathers over the chains of its cell's 27-cell shell (cl.NeighborCells
// order), and the per-worker energies are summed in worker order and
// halved.
func (g chainGrid) forcesGather(cl *md.CellList[float64], workers int, p md.Params[float64], pos, acc md.Coords[float64]) float64 {
	rc2 := p.Cutoff * p.Cutoff
	ncells := g.dims * g.dims * g.dims
	buf := make([]int, 27)
	var total float64
	for w := 0; w < workers; w++ {
		var pe float64
		for c := w * ncells / workers; c < (w+1)*ncells/workers; c++ {
			if g.heads[c] < 0 {
				continue
			}
			cells := cl.NeighborCells(c, buf)
			for i := g.heads[c]; i >= 0; i = g.next[i] {
				pi := pos.At(int(i))
				var ai vec.V3[float64]
				var pei float64
				for _, nc := range cells {
					for j := g.heads[nc]; j >= 0; j = g.next[j] {
						if j == i {
							continue
						}
						d := md.MinImage(pi.Sub(pos.At(int(j))), p.Box)
						r2 := d.Norm2()
						if r2 >= rc2 || r2 == 0 {
							continue
						}
						v, f := md.LJPair(p, r2)
						pei += v
						ai = ai.Add(d.Scale(f))
					}
				}
				acc.Set(int(i), ai)
				pe += pei
			}
		}
		total += pe
	}
	return total / 2
}

// chainCase is one in-box input the oracle pins run on.
type chainCase struct {
	name string
	box  float64
	pos  []vec.V3[float64]
}

// chainCases covers the FCC lattice, a jittered lattice, uniform
// random positions and coordinates at exactly 0 and just below the
// box, in grids of 3 and 4 cells per edge.
func chainCases(t *testing.T) []chainCase {
	t.Helper()
	rng := xrand.New(31)
	random := func(n int, box float64) []vec.V3[float64] {
		out := make([]vec.V3[float64], n)
		for i := range out {
			out[i] = vec.V3[float64]{X: rng.Float64() * box, Y: rng.Float64() * box, Z: rng.Float64() * box}
		}
		return out
	}
	fcc864, p864 := makeState(t, 864) // box ≈ 10.1: 4 cells per edge
	fcc500, p500 := makeState(t, 500) // box ≈ 8.4: 3 cells per edge
	jittered := make([]vec.V3[float64], len(fcc864.Pos))
	for i, p := range fcc864.Pos {
		d := vec.V3[float64]{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5, Z: rng.Float64() - 0.5}
		jittered[i] = md.Wrap(p.Add(d.Scale(0.3)), p864.Box)
	}
	edges := random(300, 9)
	below := math.Nextafter(9, 0)
	for k := 0; k < 40; k += 4 {
		edges[k] = vec.V3[float64]{X: 0, Y: edges[k].Y, Z: below}
		edges[k+1] = vec.V3[float64]{X: below, Y: 0, Z: 0}
		edges[k+2] = vec.V3[float64]{X: below, Y: below, Z: below}
		edges[k+3] = vec.V3[float64]{X: 0, Y: 0, Z: edges[k+3].Z}
	}
	return []chainCase{
		{"fcc864", p864.Box, fcc864.Pos},
		{"fcc500", p500.Box, fcc500.Pos},
		{"jittered", p864.Box, jittered},
		{"random", 9, random(400, 9)},
		{"edges", 9, edges},
	}
}

func checkForcesBitwise(t *testing.T, what string, pe, peWant float64, acc, want md.Coords[float64]) {
	t.Helper()
	if math.Float64bits(pe) != math.Float64bits(peWant) {
		t.Fatalf("%s: PE %v, oracle %v", what, pe, peWant)
	}
	for i := 0; i < want.Len(); i++ {
		g, w := acc.At(i), want.At(i)
		if math.Float64bits(g.X) != math.Float64bits(w.X) ||
			math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) {
			t.Fatalf("%s: acc[%d] = %+v, oracle %+v", what, i, g, w)
		}
	}
}

// TestCellKernelsMatchChainOracleBitwise pins md.CellList.Forces and
// Engine.ForcesCell against the chain traversals they replaced: same
// grid size, same energy and accelerations to the bit, serially and
// for every worker count.
func TestCellKernelsMatchChainOracleBitwise(t *testing.T) {
	for _, c := range chainCases(t) {
		p := md.Params[float64]{Box: c.box, Cutoff: 2.5, Dt: 0.004}
		pos := md.CoordsFromV3(c.pos)
		n := pos.Len()
		dims := int(c.box / p.Cutoff)
		g := buildChains(c.box, dims, pos)
		cl, err := md.NewCellList(p.Box, p.Cutoff)
		if err != nil {
			t.Fatal(err)
		}
		acc, want := md.MakeCoords[float64](n), md.MakeCoords[float64](n)
		pe := cl.Forces(p, pos, acc)
		if cl.Dims() != dims {
			t.Fatalf("%s: grid dims %d, want %d", c.name, cl.Dims(), dims)
		}
		checkForcesBitwise(t, c.name+"/serial", pe, g.forcesHalfShell(p, pos, want), acc, want)
		for _, w := range []int{1, 2, 3, 4, 8} {
			e := New[float64](w)
			pe, err := e.ForcesCell(cl, p, pos, acc)
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			peWant := g.forcesGather(cl, w, p, pos, want)
			checkForcesBitwise(t, fmt.Sprintf("%s/w%d", c.name, w), pe, peWant, acc, want)
		}
	}
}

// TestCellKernelsOutOfBoxMatchReference shifts atoms by a whole box
// along different axes (+x, -y, -z) and checks both cell kernels
// against md.ComputeForces. Binning must fold each shifted atom to its
// periodic image; clamping it into an edge cell instead loses pairs.
func TestCellKernelsOutOfBoxMatchReference(t *testing.T) {
	st, p := makeState(t, 864)
	pos := md.CoordsFromV3(st.Pos)
	for i := 0; i < pos.Len(); i++ {
		switch {
		case i%37 == 0:
			pos.X[i] += p.Box
		case i%41 == 0:
			pos.Y[i] -= p.Box
		case i%53 == 0:
			pos.Z[i] -= p.Box
		}
	}
	n := pos.Len()
	accRef := md.MakeCoords[float64](n)
	peRef := md.ComputeForces(p, pos, accRef)
	check := func(what string, pe float64, acc md.Coords[float64]) {
		t.Helper()
		if math.Abs(pe-peRef) > 1e-9*(1+math.Abs(peRef)) {
			t.Fatalf("%s: PE %v, reference %v", what, pe, peRef)
		}
		for i := 0; i < n; i++ {
			if acc.At(i).Sub(accRef.At(i)).Norm() > 1e-9*(1+accRef.At(i).Norm()) {
				t.Fatalf("%s: acc[%d] = %+v, reference %+v", what, i, acc.At(i), accRef.At(i))
			}
		}
	}
	cl, err := md.NewCellList(p.Box, p.Cutoff)
	if err != nil {
		t.Fatal(err)
	}
	acc := md.MakeCoords[float64](n)
	check("serial", cl.Forces(p, pos, acc), acc)
	for _, w := range []int{1, 2, 4} {
		e := New[float64](w)
		pe, err := e.ForcesCell(cl, p, pos, acc)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("w%d", w), pe, acc)
	}
}
