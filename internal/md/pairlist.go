package md

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/vec"
)

// NeighborList is the Verlet pairlist optimization the paper describes
// as "one of the most common techniques" for taming the MD kernel's
// cache behaviour (section 3.4) — and then deliberately avoids, to keep
// the kernel's memory access pattern irregular. It is the host's one
// O(N) force path, and the ablation benches use it to quantify what the
// paper left on the table on the cache-based baseline.
//
// The list stores, for every atom i, the atoms j > i within
// Cutoff+Skin. It is valid until some atom has moved more than Skin/2
// since the last build, at which point pairs may be missed and the list
// must be rebuilt. Builds bin the atoms into a private cell grid first
// (see cellGrid) and gather cell by cell, so a build is O(N) at fixed
// density too.
type NeighborList[T vec.Float] struct {
	Skin T // extra shell beyond the cutoff (> 0)

	pairs   [][]int32 // pairs[i] = neighbors j > i, ascending
	ref     Coords[T] // positions at build time
	builds  int       // number of (re)builds performed
	queries int       // number of force evaluations served

	// rowArena backs every row with stride int32 slots so steady-state
	// rebuilds append within capacity instead of ratcheting per-row
	// allocations forever (a row whose occupancy sets a new all-time
	// high would otherwise realloc — across thousands of rows that
	// tail never dies). A row that overflows its stride escapes the
	// arena for that one build; EndBuild then re-strides with slack,
	// so overflow is self-healing and allocation stays off the steady
	// state.
	rowArena []int32
	stride   int

	// grid is the cell binning the build gathers over, embedded by
	// value so rebuilds re-geometry it in place instead of
	// reconstructing — its arenas persist across box/dims changes.
	// BeginBuild bins into it and BuildSpan reads it.
	grid cellGrid[T]
}

// NewNeighborList creates an empty list with the given skin width.
func NewNeighborList[T vec.Float](skin T) (*NeighborList[T], error) {
	if !positiveFinite(skin) {
		return nil, fmt.Errorf("md: neighbor list skin must be positive and finite, got %v", skin)
	}
	return &NeighborList[T]{Skin: skin}, nil
}

// Builds returns how many times the list has been (re)built.
func (nl *NeighborList[T]) Builds() int { return nl.builds }

// Queries returns how many force evaluations the list has served.
func (nl *NeighborList[T]) Queries() int { return nl.queries }

// Build rebuilds the list from the current positions. It bins the
// atoms into cells one list radius wide and gathers each home cell's
// candidates once, from the cell and its 26 neighbors — O(N·density)
// instead of the reference scan's O(N²). A box too small for three
// cells per edge is one cell, so the gather is then the full scan.
// Either way the list holds, for every atom i, exactly the neighbors
// j > i within Cutoff+Skin in ascending-j order, so the built list
// (and every force evaluation over it) is bitwise independent of the
// grid. BuildN2 pins this in the tests.
func (nl *NeighborList[T]) Build(p Params[T], pos Coords[T]) {
	nl.BeginBuild(p, pos, 1)
	nl.BuildSpan(p, pos, 0, 0, pos.Len())
	nl.EndBuild(pos)
}

// BuildN2 rebuilds the list with the reference O(N²) scan, which
// shares no code with the cell-major gather: the oracle the property
// tests, the fuzz target, and the build benchmarks compare the serial
// and parallel builds against.
func (nl *NeighborList[T]) BuildN2(p Params[T], pos Coords[T]) {
	nl.sizeRows(pos.Len())
	rl := p.Cutoff + nl.Skin
	rl2 := rl * rl
	for i := 0; i < pos.Len(); i++ {
		row := nl.pairs[i][:0]
		pi := pos.At(i)
		for j := i + 1; j < pos.Len(); j++ {
			d := MinImage(pi.Sub(pos.At(j)), p.Box)
			if d.Norm2() < rl2 {
				row = append(row, int32(j))
			}
		}
		nl.pairs[i] = row
	}
	nl.EndBuild(pos)
}

// BeginBuild prepares a rebuild: it sizes the row table, bins the
// atoms into the list's grid, and carves gather scratch for shards
// concurrent BuildSpan calls. It is exported, together with BuildSpan
// and EndBuild, for the sharded parallel builder in internal/parallel;
// serial callers use Build.
func (nl *NeighborList[T]) BeginBuild(p Params[T], pos Coords[T], shards int) {
	nl.sizeRows(pos.Len())
	nl.grid.box, nl.grid.reach = p.Box, p.Cutoff+nl.Skin
	nl.grid.binWrapped(pos, shards)
}

// initialRowStride is the first-build guess at the per-row arena
// width; EndBuild re-strides from observed occupancy if it is short.
const initialRowStride = 64

// sizeRows resizes the row table to n atoms and points every row at
// its stride-wide arena slot (length 0, capacity stride — the 3-index
// slice keeps an overflowing append from bleeding into the next row).
// noinline keeps the grow-once makes a single ledger site each instead
// of one per inlined caller.
//
//go:noinline
func (nl *NeighborList[T]) sizeRows(n int) {
	if cap(nl.pairs) < n {
		nl.pairs = make([][]int32, n) //mdlint:ignore hotalloc amortized grow-once rebuild buffer, reused while capacity suffices
	}
	nl.pairs = nl.pairs[:n]
	if nl.stride == 0 {
		nl.stride = initialRowStride
	}
	if cap(nl.rowArena) < n*nl.stride {
		nl.rowArena = newRowArena(n * nl.stride)
	}
	nl.rowArena = nl.rowArena[:n*nl.stride]
	for i := range nl.pairs {
		off := i * nl.stride
		nl.pairs[i] = nl.rowArena[off : off : off+nl.stride]
	}
}

// newRowArena is the one audited allocation both the grow-once sizing
// and the rare re-stride share. noinline pins it as a single ledger
// site.
//
//go:noinline
func newRowArena(n int) []int32 {
	return make([]int32, n) //mdlint:ignore hotalloc amortized row arena; grows on atom-count or stride increase, reused otherwise
}

// restride widens the row arena when some row outgrew its slot this
// build (its append escaped the arena). The 25%+8 slack makes the
// stride converge in a handful of events per run, after which rebuilds
// are allocation-free; rows are copied so the committed list stays
// valid for force evaluations until the next build.
func (nl *NeighborList[T]) restride() {
	maxLen := 0
	for _, r := range nl.pairs {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	if maxLen <= nl.stride {
		return
	}
	stride := maxLen + maxLen/4 + 8
	arena := newRowArena(len(nl.pairs) * stride)
	for i, r := range nl.pairs {
		off := i * stride
		nl.pairs[i] = arena[off : off+len(r) : off+stride]
		copy(nl.pairs[i], r)
	}
	nl.rowArena, nl.stride = arena, stride
}

// BuildSpan fills the rows of the atoms at slots [lo, hi) of the
// grid's cell order (0 <= lo <= hi <= N), using shard's gather
// scratch. It walks the span cell by cell. For each home cell it
// gathers the stencil's atoms past the cell's first home atom into one
// union, puts the union in ascending index order, copies its positions
// into contiguous planes, and then fills the home atoms' rows in
// ascending order: a cursor moves past each home atom i, and the
// union's suffix beyond it is distance-tested. Accepted j therefore
// come out ascending, with no per-row sort. A span that starts inside
// a cell gathers that cell's union anew, from its first home atom in
// the span. Rows depend only on positions, so spans are independent:
// the parallel builder shards slots with no post-merge, and any split
// gives the rows a single Build gives.
func (nl *NeighborList[T]) BuildSpan(p Params[T], pos Coords[T], shard, lo, hi int) {
	g := &nl.grid
	rl := p.Cutoff + nl.Skin
	rl2 := rl * rl
	box := p.Box
	h := box / 2
	keyBits := bits.Len(uint(max(pos.Len()-1, 0)))
	unionBuf, tmp, planes := g.gatherScratch(shard)
	var cellbuf [27]int
	// The first cell whose run ends past lo holds slot lo.
	c, _ := slices.BinarySearch(g.starts[1:], int32(lo+1))
	for ; lo < hi; c++ {
		home := g.order[lo:min(hi, int(g.starts[c+1]))]
		if len(home) == 0 {
			continue
		}
		lo += len(home)
		union := unionBuf[:0]
		runs := 0
		for _, s := range g.neighborCells(c, cellbuf[:]) {
			run := g.order[g.starts[s]:g.starts[s+1]]
			k, _ := slices.BinarySearch(run, home[0]+1)
			if k < len(run) {
				union = append(union, run[k:]...)
				runs++
			}
		}
		if runs > 1 {
			union = radixSortIndices(union, tmp[:len(union)], keyBits)
		}
		ux, uy, uz := planes.X[:len(union)], planes.Y[:len(union)], planes.Z[:len(union)]
		for k, j := range union {
			ux[k], uy[k], uz[k] = pos.X[j], pos.Y[j], pos.Z[j]
		}

		cur := 0
		for _, i := range home {
			for cur < len(union) && union[cur] <= i {
				cur++
			}
			// The candidates past i and their positions, each plane
			// resliced to them and then to their count: that tells the
			// compiler all four slices have one length, so the test
			// indexes them without bounds checks.
			cand := union[cur:]
			xs, ys, zs := ux[cur:], uy[cur:], uz[cur:]
			xs, ys, zs = xs[:len(cand)], ys[:len(cand)], zs[:len(cand)]
			xi, yi, zi := pos.X[i], pos.Y[i], pos.Z[i]
			row := nl.pairs[i][:0]
			// bce:begin
			for k, j := range cand {
				dx := minImage1(xi-xs[k], box, h)
				dy := minImage1(yi-ys[k], box, h)
				dz := minImage1(zi-zs[k], box, h)
				if dx*dx+dy*dy+dz*dz < rl2 {
					row = append(row, j)
				}
			}
			// bce:end
			nl.pairs[i] = row
		}
	}
}

// radixSortIndices sorts keys, distinct atom indices below 1<<keyBits,
// ascending by an LSD radix over keyBits in as few byte-or-narrower
// digits as cover them, ping-ponging with tmp (len(tmp) == len(keys)).
// It returns whichever buffer holds the result. Linear in len(keys)
// plus one digit table per pass, with the table on the stack.
func radixSortIndices(keys, tmp []int32, keyBits int) []int32 {
	passes := (keyBits + 7) / 8
	if passes == 0 {
		return keys
	}
	width := (keyBits + passes - 1) / passes
	mask := int32(1)<<width - 1
	var count [256]int32
	src, dst := keys, tmp[:len(keys)]
	for pass := range passes {
		shift := pass * width
		clear(count[:mask+1])
		for _, k := range src {
			count[k>>shift&mask]++
		}
		at := int32(0)
		for d := range count[:mask+1] {
			at, count[d] = at+count[d], at
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// EndBuild commits a rebuild: reference positions for the staleness
// check, and the build counter. A build abandoned before EndBuild (a
// cancelled parallel build) leaves ref at the last committed build,
// so Stale keeps answering true and the next evaluation rebuilds — a
// torn row table is never trusted. The per-plane appends are amortized
// grow-once and invisible to the steady state.
func (nl *NeighborList[T]) EndBuild(pos Coords[T]) {
	nl.restride()
	nl.ref.X = append(nl.ref.X[:0], pos.X...)
	nl.ref.Y = append(nl.ref.Y[:0], pos.Y...)
	nl.ref.Z = append(nl.ref.Z[:0], pos.Z...)
	nl.builds++
}

// Stale reports whether any atom has moved more than Skin/2 since the
// last build (in which case the list can no longer be trusted). It
// reads the planes directly; the displacement is MinImage of pos minus
// ref and its square is Norm2's x*x+y*y+z*z, so the answer is the V3
// form's bit for bit.
func (nl *NeighborList[T]) Stale(p Params[T], pos Coords[T]) bool {
	n := pos.Len()
	if nl.ref.Len() != n {
		return true
	}
	limit := nl.Skin / 2
	limit2 := limit * limit
	box := p.Box
	h := box / 2
	px, py, pz := pos.X[:n], pos.Y[:n], pos.Z[:n]
	rx, ry, rz := nl.ref.X[:n], nl.ref.Y[:n], nl.ref.Z[:n]
	for i := range px {
		dx := minImage1(px[i]-rx[i], box, h)
		dy := minImage1(py[i]-ry[i], box, h)
		dz := minImage1(pz[i]-rz[i], box, h)
		if dx*dx+dy*dy+dz*dz > limit2 {
			return true
		}
	}
	return false
}

// Refresh rebuilds the list if it is stale for pos. Forces calls it
// before every evaluation; observables that read rows between
// evaluations call it too, so a list they are handed is always valid
// for the positions they score.
func (nl *NeighborList[T]) Refresh(p Params[T], pos Coords[T]) {
	if nl.Stale(p, pos) {
		nl.Build(p, pos)
	}
}

// scanList returns a throwaway list built on pos whose rows hold every
// pair within p.Cutoff: the pair enumerator for one-off passes (set-up
// forces, observables without a live list). A valid list scores the
// same pairs in the same order whatever its skin, so the skin is a
// hair over zero, to keep the rows short. Even a skin that underflows
// to zero leaves the radius at the cutoff, and the list is never
// checked for staleness, so it needs no positive floor.
func scanList[T vec.Float](p Params[T], pos Coords[T]) *NeighborList[T] {
	nl := &NeighborList[T]{Skin: p.Cutoff * 1e-6}
	nl.Build(p, pos)
	return nl
}

// Forces evaluates the LJ forces using the list, rebuilding it first if
// it is stale. acc is overwritten; the return value is the potential
// energy. The result is ComputeForces bit for bit: the rows hold every
// pair within the cutoff, in the same (i ascending, j ascending) order
// ComputeForces visits them, and the pairs the list prunes contribute
// nothing there.
func (nl *NeighborList[T]) Forces(p Params[T], pos Coords[T], acc Coords[T]) T {
	nl.Refresh(p, pos)
	acc.Zero()
	pe := nl.ForcesSpan(p, pos, acc, 0, nl.PairCount())
	nl.queries++
	return pe
}

// ForcesSpan is the list kernel over the flattened pair span [lo, hi)
// (pairs counted row by row, i ascending, j ascending within a row): it
// adds each pair's force into acc, atom i's side and atom j's, and
// returns the span's potential energy. It neither zeroes acc nor
// refreshes the list, so a span may start or end inside a row. Forces
// runs it over the whole list; the parallel engine runs one span per
// worker into a private buffer.
//
// The loop works on the planes directly. Every plane is resliced to
// the row count, so only the j-indexed gather keeps a bounds check;
// the minimum image is the branch form of MinImage on scalars; and
// atom i's acceleration stays in registers across its row and is
// stored once at the end. That last step is bitwise safe because every
// j in row i is greater than i: no other update reaches acc[i] while
// its row runs, so acc[i] takes the same additions in the same order.
func (nl *NeighborList[T]) ForcesSpan(p Params[T], pos Coords[T], acc Coords[T], lo, hi int) T {
	lj := NewLJ(p)
	rc2 := p.Cutoff * p.Cutoff
	box := p.Box
	h := box / 2
	n := len(nl.pairs)
	px, py, pz := pos.X[:n], pos.Y[:n], pos.Z[:n]
	ax, ay, az := acc.X[:n], acc.Y[:n], acc.Z[:n]
	var pe T
	seen := 0 // pairs in the rows before row i
	for i, js := range nl.pairs {
		if seen >= hi {
			break
		}
		from, to := max(lo-seen, 0), min(hi-seen, len(js))
		seen += len(js)
		if from >= to {
			continue
		}
		js = js[from:to]
		// bce:begin
		xi, yi, zi := px[i], py[i], pz[i]
		axi, ayi, azi := ax[i], ay[i], az[i]
		for _, j := range js {
			dx := minImage1(xi-px[j], box, h)
			dy := minImage1(yi-py[j], box, h)
			dz := minImage1(zi-pz[j], box, h)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			v, f := lj.Pair(r2)
			pe += v
			fx, fy, fz := dx*f, dy*f, dz*f
			axi += fx
			ayi += fy
			azi += fz
			ax[j] -= fx
			ay[j] -= fy
			az[j] -= fz
		}
		ax[i], ay[i], az[i] = axi, ayi, azi
		// bce:end
	}
	return pe
}

// Neighbors returns the stored neighbor indices j > i for atom i, valid
// until the next Build. Callers must treat the slice as read-only; it
// aliases the list's internal storage.
func (nl *NeighborList[T]) Neighbors(i int) []int32 { return nl.pairs[i] }

// PairCount returns the number of stored pairs, a direct measure of how
// much work the list saves versus the N(N-1)/2 full scan.
func (nl *NeighborList[T]) PairCount() int {
	total := 0
	for _, js := range nl.pairs {
		total += len(js)
	}
	return total
}
