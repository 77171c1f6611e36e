package md

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// CellList is the linked-cell method: the box is divided into a grid of
// cells at least one cutoff wide, so an atom's interaction partners all
// lie in its own cell or the 26 neighbors. Force evaluation becomes
// O(N) at fixed density instead of O(N²).
//
// Like the neighbor pairlist, this is one of the standard optimizations
// the paper's kernel deliberately omits (its whole point is the
// irregular O(N²) access pattern); it lives here for the ablation
// benches and as the scalable path for the full-framework extensions
// the paper's conclusion anticipates.
//
// There is one layout and one sizing rule: BinWrapped folds every
// position into the box, sizes the grid for the atom count with
// buildGridDims, and counting-sorts the atoms into packed per-cell runs
// that the force kernels and the neighbor-list build all walk. All
// scratch state is carved from two grow-once arenas (one int32, one T),
// so a steady-state rebuild allocates nothing and the whole ledger cost
// of the cell path is the two arena makes below.
type CellList[T vec.Float] struct {
	dims  int // cells per box edge, set by BinWrapped
	width T   // cell edge length (>= reach)
	box   T   // box edge the grid covers
	reach T   // the smallest cell edge allowed: the cutoff or list radius

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

	builds int
}

// NewCellList sizes a grid for the given box and cutoff. It fails when
// the box cannot hold a 3x3x3 grid of cutoff-wide cells (at that point
// the direct method is both required and cheap).
func NewCellList[T vec.Float](box, cutoff T) (*CellList[T], error) {
	if box <= 0 || cutoff <= 0 {
		return nil, fmt.Errorf("md: cell list needs positive box and cutoff, got %v, %v", box, cutoff)
	}
	dims := int(box / cutoff)
	if dims < 3 {
		return nil, fmt.Errorf("md: box %v holds only %d cutoff-wide cells per edge; need >= 3", box, dims)
	}
	return &CellList[T]{
		dims:  dims,
		width: box / T(dims),
		box:   box,
		reach: cutoff,
	}, nil
}

// Dims returns the grid dimension per edge. BinWrapped caps it for the
// atom count it bins (buildGridDims); before the first binning it is
// the uncapped box/cutoff count.
func (cl *CellList[T]) Dims() int { return cl.dims }

// Builds returns how many times the grid has been rebuilt.
func (cl *CellList[T]) Builds() int { return cl.builds }

// axisCell maps one folded coordinate to its cell along an axis. A
// coordinate just below the box edge can round to one past the last
// cell; clamp both ends so any folded coordinate maps to a valid cell.
func (cl *CellList[T]) axisCell(x T) int {
	c := int(x / cl.width)
	if c < 0 {
		return 0
	}
	if c >= cl.dims {
		return cl.dims - 1
	}
	return c
}

// NumCells returns the total number of cells in the grid.
func (cl *CellList[T]) NumCells() int { return cl.dims * cl.dims * cl.dims }

// NeighborCells writes cell c itself followed by its 26 periodic
// neighbors into buf (which must have length >= 27) and returns the
// filled slice. This full-shell enumeration is the gather-only
// traversal parallel cell sharding needs: every cell can compute its
// own atoms' forces without writing to any other cell's atoms.
func (cl *CellList[T]) NeighborCells(c int, buf []int) []int {
	d := cl.dims
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
				buf = append(buf, cl.wrapCell(cx+ox, cy+oy, cz+oz))
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

// CellOfWrapped returns the cell the last BinWrapped assigned, or
// would assign, to position p — the lookup the neighbor-list row
// builder uses to find an atom's home cell without storing a per-atom
// cell table. Valid after BinWrapped, which sizes the grid.
func (cl *CellList[T]) CellOfWrapped(p vec.V3[T]) int {
	return (cl.axisCell(foldCoord(p.X, cl.box))*cl.dims+
		cl.axisCell(foldCoord(p.Y, cl.box)))*cl.dims +
		cl.axisCell(foldCoord(p.Z, cl.box))
}

// ensureCSR carves the counting-sort buffers for n atoms and ncells
// cells out of the two CSR arenas, growing them only when capacity is
// exceeded. noinline keeps each arena make a single ledger site rather
// than one per inlined caller.
//
//go:noinline
func (cl *CellList[T]) ensureCSR(n, ncells int) {
	need := (ncells + 1) + ncells + n + n
	if cap(cl.csrInts) < need {
		cl.csrInts = make([]int32, need) //mdlint:ignore hotalloc amortized grow-once CSR arena, reused while capacity suffices
	}
	b := cl.csrInts[:need]
	cl.starts = b[0 : ncells+1 : ncells+1]
	b = b[ncells+1:]
	cl.cursor = b[0:ncells:ncells]
	b = b[ncells:]
	cl.order = b[0:n:n]
	cl.cellOf = b[n : 2*n : 2*n]
	if cap(cl.csrPos) < 3*n {
		cl.csrPos = make([]T, 3*n) //mdlint:ignore hotalloc amortized grow-once packed-position arena, reused while capacity suffices
	}
	cl.packed = coordsOver(cl.csrPos[:3*n], n)
}

// maxBuildGridDims bounds a cell grid's per-edge cell count: more
// cells than ~8 atoms' worth buys nothing (most cells are empty) and a
// pathological box/cutoff ratio must not size a grid at all. The floor
// of 3 is the CellList minimum; the hard ceiling keeps the per-cell
// arrays bounded for any input.
func maxBuildGridDims(n int) int {
	const hardCap = 128 // 128³ cells ≈ 2M int32 run starts, the most a binning may allocate
	d := 3
	for d < hardCap && (d+1)*(d+1)*(d+1) <= 8*n {
		d++
	}
	return d
}

// buildGridDims returns the per-edge cell count BinWrapped sizes the
// grid to for n atoms — the one sizing rule the cell force kernels and
// the neighbor-list build share — or 0 when cells rl wide do not fit
// three to the box (the list build then falls back to the O(N²) scan).
// Guards are written so NaN/Inf boxes and radii answer 0 or a clamped
// grid, never a panic: the comparison form !(x > 0) is false-for-NaN on
// both sides.
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

// BinWrapped rebuilds the packed cell layout. It first sizes the grid
// for pos.Len() atoms with buildGridDims — the cap that keeps a
// pathological box/cutoff ratio from sizing a grid larger than the
// atoms can fill — then folds each coordinate into [0, box), so an
// unwrapped (or adversarial) input still bins every atom into the cell
// its minimum image lives in. Binning is a counting sort — count,
// prefix-sum, scatter — so order stays ascending within every cell and
// the whole pass is O(N + cells).
func (cl *CellList[T]) BinWrapped(pos Coords[T]) {
	n := pos.Len()
	cl.dims = buildGridDims(cl.box, cl.reach, n)
	cl.width = cl.box / T(cl.dims)
	ncells := cl.dims * cl.dims * cl.dims
	cl.ensureCSR(n, ncells)
	for c := range cl.cursor {
		cl.cursor[c] = 0
	}

	for i := 0; i < n; i++ {
		c := cl.CellOfWrapped(pos.At(i))
		cl.cellOf[i] = int32(c)
		cl.cursor[c]++
	}
	cl.starts[0] = 0
	for c := 0; c < ncells; c++ {
		cl.starts[c+1] = cl.starts[c] + cl.cursor[c]
		cl.cursor[c] = cl.starts[c]
	}
	for i := 0; i < n; i++ {
		c := cl.cellOf[i]
		k := cl.cursor[c]
		cl.cursor[c] = k + 1
		cl.order[k] = int32(i)
		cl.packed.Set(int(k), pos.At(i))
	}
	cl.builds++
}

// CellSpan returns the half-open range of cell c's run in the packed
// layout. Valid after BinWrapped.
func (cl *CellList[T]) CellSpan(c int) (lo, hi int32) {
	return cl.starts[c], cl.starts[c+1]
}

// Packed returns the packed layout: slot k holds atom order[k] at
// position pos.At(k), and cell c's atoms fill slots CellSpan(c).
// Valid after BinWrapped; callers must treat both as read-only.
func (cl *CellList[T]) Packed() (order []int32, pos Coords[T]) {
	return cl.order, cl.packed
}

// Forces evaluates the LJ forces using the cell grid, rebinning it
// from the current positions first (a rebuild is O(N) and must track
// every step). acc is overwritten; the return value is the potential
// energy. Results match ComputeForces to rounding.
//
// Every run is walked from its last slot down: that fixes the pair
// order, and so the summation order, the committed trajectory goldens
// were recorded under.
func (cl *CellList[T]) Forces(p Params[T], pos Coords[T], acc Coords[T]) T {
	cl.BinWrapped(pos)
	acc.Zero()
	rc2 := p.Cutoff * p.Cutoff
	var pe T
	d := cl.dims
	for cx := 0; cx < d; cx++ {
		for cy := 0; cy < d; cy++ {
			for cz := 0; cz < d; cz++ {
				lo, hi := cl.CellSpan((cx*d+cy)*d + cz)
				for k := hi - 1; k >= lo; k-- {
					i := int(cl.order[k])
					pi := cl.packed.At(int(k))
					// Within the home cell: each pair once.
					for m := k - 1; m >= lo; m-- {
						pe += cl.pair(p, rc2, acc, i, m, pi)
					}
					// Half of the 26 neighbor cells (to visit each
					// unordered cell pair once).
					for _, off := range halfNeighborOffsets {
						nlo, nhi := cl.CellSpan(cl.wrapCell(cx+off[0], cy+off[1], cz+off[2]))
						for m := nhi - 1; m >= nlo; m-- {
							pe += cl.pair(p, rc2, acc, i, m, pi)
						}
					}
				}
			}
		}
	}
	return pe
}

// pair applies one interaction between atom i (at pi) and the atom in
// packed slot m, with the minimum image.
func (cl *CellList[T]) pair(p Params[T], rc2 T, acc Coords[T], i int, m int32, pi vec.V3[T]) T {
	dv := MinImage(pi.Sub(cl.packed.At(int(m))), p.Box)
	r2 := dv.Norm2()
	if r2 >= rc2 || r2 == 0 {
		return 0
	}
	v, f := LJPair(p, r2)
	fd := dv.Scale(f)
	acc.Add(i, fd)
	acc.Sub(int(cl.order[m]), fd)
	return v
}

// wrapCell folds a (possibly negative or overflowing) cell coordinate
// back into the periodic grid.
func (cl *CellList[T]) wrapCell(cx, cy, cz int) int {
	d := cl.dims
	cx = (cx%d + d) % d
	cy = (cy%d + d) % d
	cz = (cz%d + d) % d
	return (cx*d+cy)*d + cz
}

// halfNeighborOffsets lists 13 of the 26 neighbor-cell offsets such
// that every unordered pair of adjacent cells appears exactly once
// (the standard half-shell enumeration).
var halfNeighborOffsets = [13][3]int{
	{1, 0, 0},
	{1, 1, 0}, {0, 1, 0}, {-1, 1, 0},
	{1, 0, 1}, {0, 0, 1}, {-1, 0, 1},
	{1, 1, 1}, {0, 1, 1}, {-1, 1, 1},
	{1, -1, 1}, {0, -1, 1}, {-1, -1, 1},
}
