package md

import (
	"math"

	"repro/internal/vec"
)

// cellGrid bins atoms into a grid of cells at least one list radius
// wide, so an atom's neighbors all lie in its own cell or the 26
// around it. It is the spatial index the neighbor-list build gathers
// over (NeighborList.BeginBuild / BuildRow) — the same cell blocking
// the Cell and GPU ports in the related work use to lay out what a
// list build reads — and it never leaves this package: the force
// kernels all walk list rows or the full pair scan, never cells.
//
// There is one layout and one sizing rule: binWrapped folds every
// position into the box, sizes the grid for the atom count with
// buildGridDims, and counting-sorts the atoms into packed per-cell
// runs. All scratch state is carved from two grow-once arenas (one
// int32, one T), so a steady-state rebuild allocates nothing and the
// whole ledger cost of binning is the two arena makes below.
type cellGrid[T vec.Float] struct {
	dims  int // cells per box edge, set by binWrapped
	width T   // cell edge length (>= reach)
	box   T   // box edge the grid covers
	reach T   // the smallest cell edge allowed: the list radius

	// Packed (CSR) layout: order holds atom indices grouped by cell
	// (ascending within each cell), packed the corresponding positions
	// copied alongside as SoA planes, and starts[c]..starts[c+1]
	// delimits cell c's run. Streaming contiguous runs keeps every
	// inner loop on sequential loads.
	starts []int32
	order  []int32
	packed Coords[T]
	cursor []int32 // counting-sort scratch
	cellOf []int32 // counting-sort scratch: each atom's cell, one fold per atom

	csrInts []int32 // arena behind starts+cursor+order+cellOf
	csrPos  []T     // arena behind packed
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

// neighborCells writes cell c itself followed by its 26 periodic
// neighbors into buf (which must have length >= 27) and returns the
// filled slice: the full shell a list row gathers its candidates from.
func (g *cellGrid[T]) neighborCells(c int, buf []int) []int {
	d := g.dims
	cz := c % d
	cy := (c / d) % d
	cx := c / (d * d)
	buf = buf[:0]
	buf = append(buf, c)
	for ox := -1; ox <= 1; ox++ {
		for oy := -1; oy <= 1; oy++ {
			for oz := -1; oz <= 1; oz++ {
				if ox == 0 && oy == 0 && oz == 0 {
					continue
				}
				buf = append(buf, g.wrapCell(cx+ox, cy+oy, cz+oz))
			}
		}
	}
	return buf
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

// cellOfWrapped returns the cell the last binWrapped assigned, or
// would assign, to position p — the lookup the list row builder uses
// to find an atom's home cell without storing a per-atom cell table.
// Valid after binWrapped, which sizes the grid.
func (g *cellGrid[T]) cellOfWrapped(p vec.V3[T]) int {
	return (g.axisCell(foldCoord(p.X, g.box))*g.dims+
		g.axisCell(foldCoord(p.Y, g.box)))*g.dims +
		g.axisCell(foldCoord(p.Z, g.box))
}

// ensureCSR carves the counting-sort buffers for n atoms and ncells
// cells out of the two CSR arenas, growing them only when capacity is
// exceeded. noinline keeps each arena make a single ledger site rather
// than one per inlined caller.
//
//go:noinline
func (g *cellGrid[T]) ensureCSR(n, ncells int) {
	need := (ncells + 1) + ncells + n + n
	if cap(g.csrInts) < need {
		g.csrInts = make([]int32, need) //mdlint:ignore hotalloc amortized grow-once CSR arena, reused while capacity suffices
	}
	b := g.csrInts[:need]
	g.starts = b[0 : ncells+1 : ncells+1]
	b = b[ncells+1:]
	g.cursor = b[0:ncells:ncells]
	b = b[ncells:]
	g.order = b[0:n:n]
	g.cellOf = b[n : 2*n : 2*n]
	if cap(g.csrPos) < 3*n {
		g.csrPos = make([]T, 3*n) //mdlint:ignore hotalloc amortized grow-once packed-position arena, reused while capacity suffices
	}
	g.packed = coordsOver(g.csrPos[:3*n], n)
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
// box (the list build then falls back to the O(N²) scan). Guards are
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

// binWrapped rebuilds the packed cell layout. It first sizes the grid
// for pos.Len() atoms with buildGridDims — the cap that keeps a
// pathological box/radius ratio from sizing a grid larger than the
// atoms can fill — then folds each coordinate into [0, box), so an
// unwrapped (or adversarial) input still bins every atom into the cell
// its minimum image lives in. Binning is a counting sort — count,
// prefix-sum, scatter — so order stays ascending within every cell and
// the whole pass is O(N + cells).
func (g *cellGrid[T]) binWrapped(pos Coords[T]) {
	n := pos.Len()
	g.dims = buildGridDims(g.box, g.reach, n)
	g.width = g.box / T(g.dims)
	ncells := g.dims * g.dims * g.dims
	g.ensureCSR(n, ncells)
	for c := range g.cursor {
		g.cursor[c] = 0
	}

	for i := 0; i < n; i++ {
		c := g.cellOfWrapped(pos.At(i))
		g.cellOf[i] = int32(c)
		g.cursor[c]++
	}
	g.starts[0] = 0
	for c := 0; c < ncells; c++ {
		g.starts[c+1] = g.starts[c] + g.cursor[c]
		g.cursor[c] = g.starts[c]
	}
	for i := 0; i < n; i++ {
		c := g.cellOf[i]
		k := g.cursor[c]
		g.cursor[c] = k + 1
		g.order[k] = int32(i)
		g.packed.Set(int(k), pos.At(i))
	}
}

// cellSpan returns the half-open range of cell c's run in the packed
// layout. Valid after binWrapped.
func (g *cellGrid[T]) cellSpan(c int) (lo, hi int32) {
	return g.starts[c], g.starts[c+1]
}

// wrapCell folds a (possibly negative or overflowing) cell coordinate
// back into the periodic grid.
func (g *cellGrid[T]) wrapCell(cx, cy, cz int) int {
	d := g.dims
	cx = (cx%d + d) % d
	cy = (cy%d + d) % d
	cz = (cz%d + d) % d
	return (cx*d+cy)*d + cz
}
