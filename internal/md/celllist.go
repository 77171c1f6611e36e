package md

import (
	"math"

	"repro/internal/vec"
)

// cellGrid bins atoms into a grid of cells at least one list radius
// wide, so an atom's neighbors all lie in its own cell or the 26
// around it. It is the spatial index the neighbor-list build gathers
// over (NeighborList.BeginBuild / BuildSpan) — the same cell blocking
// the Cell and GPU ports in the related work use to lay out what a
// list build reads — and it never leaves this package: the force
// kernels all walk list rows or the full pair scan, never cells.
//
// There is one layout and one sizing rule: binWrapped folds every
// position into the box, sizes the grid for the atom count with
// buildGridDims, and counting-sorts the atoms into per-cell runs. A
// box too small for three cells per edge is binned as one cell, whose
// run is every atom in index order. All scratch state, the build's
// per-shard gather scratch included, is carved from two grow-once
// arenas (one int32, one T), so a steady-state rebuild allocates
// nothing and the whole ledger cost of binning is the two arena makes
// in ensureCSR.
type cellGrid[T vec.Float] struct {
	dims  int // cells per box edge, set by binWrapped: 1, or 3 and up
	width T   // cell edge length (>= reach)
	box   T   // box edge the grid covers
	reach T   // the smallest cell edge allowed: the list radius

	// wrapped reports that binWrapped found a grid of three or more
	// cells per edge and every coordinate already in [0, box), so each
	// atom sits in the cell it was binned into and a stencil cell's
	// periodic image is the one the stencil step implies (BuildSpan's
	// designated images rely on both).
	wrapped bool

	// CSR layout: order holds atom indices grouped by cell (ascending
	// within each cell), and starts[c]..starts[c+1] delimits cell c's
	// run. The build shards over positions in order ("slots").
	starts []int32
	order  []int32
	cursor []int32 // counting-sort scratch
	cellOf []int32 // counting-sort scratch: each atom's cell, one fold per atom

	// span is the most atoms one home cell's candidate union can hold
	// (its stencil's cell count times the fullest cell's occupancy, at
	// most the atom count). Each build shard owns gather scratch: a
	// block of int32s at scratchAt in csrInts, holding two span-sized
	// buffers (the union and the radix pass's ping-pong buffer) and, on
	// a grid of three or more cells per edge, the union's wrap bits
	// (span) and an accept buffer (acceptCap); and three span-sized T
	// planes (the union's positions) in csrPos.
	span      int
	block     int
	scratchAt int

	csrInts []int32 // arena behind starts+cursor+order+cellOf+gather scratch
	csrPos  []T     // arena behind the gather scratch's position planes
}

// axisCell maps one folded coordinate to its cell along an axis. A
// coordinate just below the box edge can round to one past the last
// cell; clamp both ends so any folded coordinate maps to a valid cell.
func (g *cellGrid[T]) axisCell(x T) int {
	c := int(x / g.width)
	if c < 0 {
		return 0
	}
	if c >= g.dims {
		return g.dims - 1
	}
	return c
}

// stencilCell is one cell of a home cell's stencil, with the axes on
// which the stencil step from the home cell to it crosses a box face:
// bit 0 for x, 1 for y, 2 for z. On a grid of three or more cells per
// edge a step crosses a face only from the first cell of an axis to
// the last (step −1) or from the last to the first (step +1).
type stencilCell struct {
	cell int
	wrap int32
}

// neighborCells writes the stencil a home cell's candidates come from
// into buf (which must have length >= 27) and returns the filled
// slice: cell c itself first, then, on a grid of three or more cells
// per edge, its 26 periodic neighbors. A one-cell grid's stencil is
// that cell. Each axis wraps once per cell, not once per neighbor.
func (g *cellGrid[T]) neighborCells(c int, buf []stencilCell) []stencilCell {
	buf = append(buf[:0], stencilCell{cell: c})
	d := g.dims
	cz := c % d
	cy := (c / d) % d
	cx := c / (d * d)
	xs, xw := stencilAxis(cx, d, 1)
	ys, yw := stencilAxis(cy, d, 2)
	zs, zw := stencilAxis(cz, d, 4)
	for a, x := range xs {
		for b, y := range ys {
			for e, z := range zs {
				// With d >= 3 the 27 cells are distinct, and with
				// d == 1 all are c, so only c can repeat.
				if nc := (x*d+y)*d + z; nc != c {
					buf = append(buf, stencilCell{cell: nc, wrap: xw[a] | yw[b] | zw[e]})
				}
			}
		}
	}
	return buf
}

// stencilAxis returns the cells one step below, at and above cell k
// along an axis of d cells, and for each step the axis's wrap bit if
// the step crosses a box face, else 0.
func stencilAxis(k, d int, bit int32) (cells [3]int, wrap [3]int32) {
	cells = [3]int{(k + d - 1) % d, k, (k + 1) % d}
	if k == 0 {
		wrap[0] = bit
	}
	if k == d-1 {
		wrap[2] = bit
	}
	return cells, wrap
}

// faceShifts returns, for home cell c, the designated image shifts of
// a candidate indexed by its stencil step's wrap bits: entry w holds
// the x, y and z shifts. Along an axis the shift is 0 when the step
// stays inside the box, −box when it crosses the lower face from the
// axis's first cell, +box when it crosses the upper face from its
// last. The candidate's displacement is then (xi−xj)−shift.
func (g *cellGrid[T]) faceShifts(c int) (shifts [8][3]T) {
	d := g.dims
	for a, k := range [3]int{c / (d * d), c / d % d, c % d} {
		var s T
		switch k {
		case 0:
			s = -g.box
		case d - 1:
			s = g.box
		}
		for w := range shifts {
			if w>>a&1 == 1 {
				shifts[w][a] = s
			}
		}
	}
	return shifts
}

// foldCoord folds one coordinate into [0, box) for binning. Unlike
// Wrap it is total: a coordinate that is already in range (every real
// caller) takes the fast path, out-of-range finite values fold by one
// modulo step, and non-finite values come back 0 instead of looping —
// a hostile position may land in the wrong cell (and so miss pairs the
// reference scan would also score as non-finite), but it can never
// hang or index out of bounds. box must be positive.
func foldCoord[T vec.Float](x, box T) T {
	if x >= 0 && x < box {
		return x
	}
	x = T(math.Mod(float64(x), float64(box)))
	if x < 0 {
		x += box
	}
	if !(x >= 0 && x < box) { // NaN from Inf inputs, or x+box rounding to box
		return 0
	}
	return x
}

// cellOfWrapped returns the cell binWrapped assigns to position p.
// Valid after binWrapped, which sizes the grid.
func (g *cellGrid[T]) cellOfWrapped(p vec.V3[T]) int {
	return (g.axisCell(foldCoord(p.X, g.box))*g.dims+
		g.axisCell(foldCoord(p.Y, g.box)))*g.dims +
		g.axisCell(foldCoord(p.Z, g.box))
}

// ensureCSR carves the counting-sort buffers for n atoms and ncells
// cells, then shards gather-scratch blocks sized from span, out of
// the two arenas, growing them only when capacity is exceeded.
// binWrapped calls it twice per binning: with no scratch before the
// count, and with the scratch the count sizes after it. The carve is
// the same prefix both times and a grown int arena keeps the old
// contents, so the second call leaves the binned layout in place. A
// grown arena leaves each scratch block 25%+8 atoms of slack, so the
// fuller cells of a melting lattice stop regrowing it after a few
// builds. noinline keeps each arena make a single ledger site rather
// than one per inlined caller.
//
//go:noinline
func (g *cellGrid[T]) ensureCSR(n, ncells, shards, span int) {
	csr := (ncells + 1) + ncells + n + n
	block := 2 * span
	if ncells > 1 {
		block += span + acceptCap
	}
	need := csr + shards*block
	slack := shards * (span/4 + 8)
	if cap(g.csrInts) < need {
		grown := make([]int32, need+2*slack) //mdlint:ignore hotalloc amortized grow-once CSR arena, reused while capacity suffices
		copy(grown, g.csrInts)
		g.csrInts = grown
	}
	b := g.csrInts[:need]
	g.starts = b[0 : ncells+1 : ncells+1]
	b = b[ncells+1:]
	g.cursor = b[0:ncells:ncells]
	b = b[ncells:]
	g.order = b[0:n:n]
	g.cellOf = b[n : 2*n : 2*n]
	g.span, g.block, g.scratchAt = span, block, csr
	if cap(g.csrPos) < shards*3*span {
		g.csrPos = make([]T, 3*(shards*span+slack)) //mdlint:ignore hotalloc amortized grow-once gather-plane arena, reused while capacity suffices
	}
}

// acceptCap is the size of each shard's accept buffer: BuildSpan's
// designated-image loop writes every candidate into it and keeps the
// accepted prefix, so a home cell whose union holds more candidates
// takes the branch loop instead.
const acceptCap = 4096

// gatherScratch is one build shard's gather scratch, carved by
// binWrapped: the candidate union's index buffer, the radix pass's
// second buffer and the union's position planes (each span long), and
// on a grid the union's wrap bits (span long) and the accept buffer.
type gatherScratch[T vec.Float] struct {
	union, tmp, wraps []int32
	pos               Coords[T]
	accept            *[acceptCap]int32
}

// gatherScratch returns shard s's gather scratch. Valid after
// binWrapped carved at least s+1 shards.
func (g *cellGrid[T]) gatherScratch(s int) gatherScratch[T] {
	span := g.span
	at := g.scratchAt + s*g.block
	b := g.csrInts[at : at+g.block]
	planes := s * 3 * span
	sc := gatherScratch[T]{
		union: b[0:span:span],
		tmp:   b[span : 2*span : 2*span],
		pos:   coordsOver(g.csrPos[planes:planes+3*span], span),
	}
	if len(b) > 2*span {
		sc.wraps = b[2*span : 3*span : 3*span]
		sc.accept = (*[acceptCap]int32)(b[3*span:])
	}
	return sc
}

// maxBuildGridDims bounds a cell grid's per-edge cell count: more
// cells than ~8 atoms' worth buys nothing (most cells are empty) and a
// pathological box/radius ratio must not size a grid at all. The floor
// of 3 is the smallest grid whose 27-cell shell holds no cell twice;
// the hard ceiling keeps the per-cell arrays bounded for any input.
func maxBuildGridDims(n int) int {
	const hardCap = 128 // 128³ cells ≈ 2M int32 run starts, the most a binning may allocate
	d := 3
	for d < hardCap && (d+1)*(d+1)*(d+1) <= 8*n {
		d++
	}
	return d
}

// buildGridDims returns the per-edge cell count binWrapped sizes the
// grid to for n atoms, or 0 when cells rl wide do not fit three to the
// box (binWrapped then bins every atom into one cell). Guards are
// written so NaN/Inf boxes and radii answer 0 or a clamped grid, never
// a panic: the comparison form !(x > 0) is false-for-NaN on both
// sides.
func buildGridDims[T vec.Float](box, rl T, n int) int {
	if !(box > 0) || !(rl > 0) {
		return 0
	}
	r := box / rl // +Inf when rl underflows the division; handled below
	if !(r >= 3) {
		return 0
	}
	maxDims := maxBuildGridDims(n)
	if r >= T(maxDims) { // also catches +Inf before any float→int conversion
		return maxDims
	}
	return int(r)
}

// binWrapped rebuilds the cell layout and carves shards gather-scratch
// blocks. It first sizes the grid for pos.Len() atoms with
// buildGridDims — the cap that keeps a pathological box/radius ratio
// from sizing a grid larger than the atoms can fill — and bins into
// one cell when the box holds fewer than three cells per edge. On a
// real grid it folds each coordinate into [0, box), so an unwrapped
// (or adversarial) input still bins every atom into the cell its
// minimum image lives in. Binning is a counting sort — count,
// prefix-sum, scatter — so order stays ascending within every cell and
// the whole pass is O(N + cells).
func (g *cellGrid[T]) binWrapped(pos Coords[T], shards int) {
	n := pos.Len()
	g.dims = max(1, buildGridDims(g.box, g.reach, n))
	g.width = g.box / T(g.dims)
	g.wrapped = g.dims > 1 && planeInBox(pos.X, g.box) && planeInBox(pos.Y, g.box) && planeInBox(pos.Z, g.box)
	ncells := g.dims * g.dims * g.dims
	g.ensureCSR(n, ncells, 0, 0)
	for c := range g.cursor {
		g.cursor[c] = 0
	}

	for i := 0; i < n; i++ {
		c := 0
		if g.dims > 1 {
			c = g.cellOfWrapped(pos.At(i))
		}
		g.cellOf[i] = int32(c)
		g.cursor[c]++
	}
	g.starts[0] = 0
	fullest := int32(0)
	for c := 0; c < ncells; c++ {
		fullest = max(fullest, g.cursor[c])
		g.starts[c+1] = g.starts[c] + g.cursor[c]
		g.cursor[c] = g.starts[c]
	}
	for i := 0; i < n; i++ {
		c := g.cellOf[i]
		k := g.cursor[c]
		g.cursor[c] = k + 1
		g.order[k] = int32(i)
	}
	// A union never holds more than its 27 stencil cells' atoms, nor
	// more than every atom (the one-cell grid's whole run).
	g.ensureCSR(n, ncells, shards, min(n, 27*int(fullest)))
}

// planeInBox reports whether every coordinate of a plane lies in [0, box);
// a NaN fails the test.
func planeInBox[T vec.Float](xs []T, box T) bool {
	for _, x := range xs {
		if !(x >= 0 && x < box) {
			return false
		}
	}
	return true
}
