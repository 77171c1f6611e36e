package md

import (
	"fmt"
	"math"
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

	// arenas[s] holds the rows build shard s filled this build, packed
	// end to end in the order the shard filled them; each pairs[i] is
	// a capacity-clamped slice of one of them. Its length is the
	// shard's pair count, so PairCount is O(shards). BeginBuild sizes
	// each arena for the coming build in one allocation (see
	// sizeArenas), so steady-state rebuilds allocate nothing.
	arenas [][]int32

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
	nl.sizeArenas(p, pos.Len(), 1)
	rl := p.Cutoff + nl.Skin
	rl2 := rl * rl
	for i := 0; i < pos.Len(); i++ {
		row := nl.rowTail(0, pos.Len()-1-i)
		pi := pos.At(i)
		for j := i + 1; j < pos.Len(); j++ {
			d := MinImage(pi.Sub(pos.At(j)), p.Box)
			if d.Norm2() < rl2 {
				row = append(row, int32(j))
			}
		}
		nl.commitRow(0, i, row)
	}
	nl.EndBuild(pos)
}

// BeginBuild prepares a rebuild: it sizes the row table and one packed
// arena per shard, bins the atoms into the list's grid, and carves
// gather scratch for shards concurrent BuildSpan calls. It is
// exported, together with BuildSpan and EndBuild, for the sharded
// parallel builder in internal/parallel; serial callers use Build.
func (nl *NeighborList[T]) BeginBuild(p Params[T], pos Coords[T], shards int) {
	nl.sizeArenas(p, pos.Len(), shards)
	nl.grid.box, nl.grid.reach = p.Box, p.Cutoff+nl.Skin
	nl.grid.binWrapped(pos, shards)
}

// rowSlack is how many entries each shard's arena holds beyond its
// sizing estimate, so that a small shard (or a small system) whose
// count moves by a few rows between builds still fits.
const rowSlack = 256

// sizeArenas starts a build of n atoms in shards shards. It empties
// every row and drops the reference positions, so a build abandoned
// before EndBuild leaves a list that Stale rejects. It then sizes each
// shard's arena for an expected count: the shard's count in the last
// build when that build committed n atoms in as many shards (the
// reference positions say it committed), the last total split evenly
// when only the shard count changed, else pairEstimate, the expected
// count at uniform density. An arena whose capacity lies outside
// [count·17/16, count·19/16 + rowSlack] is replaced by one of
// count·9/8 + rowSlack, in one newRowArena call. The band is the
// point: a count that rises or falls by about 5% since the arena was
// sized (a melting lattice, a change of shard count) re-sizes it, and
// the build-to-build wobble of a steady run, new highs included,
// re-sizes nothing. A shard that still overflows mid-build grows in
// rowTail.
func (nl *NeighborList[T]) sizeArenas(p Params[T], n, shards int) {
	rebuild := nl.ref.Len() == n && n > 0
	last := nl.PairCount()
	sameShards := len(nl.arenas) == shards
	if cap(nl.pairs) < n {
		nl.pairs = newRowTable(n)
	}
	nl.pairs = nl.pairs[:n]
	clear(nl.pairs)
	nl.ref.X, nl.ref.Y, nl.ref.Z = nl.ref.X[:0], nl.ref.Y[:0], nl.ref.Z[:0]
	if cap(nl.arenas) < shards {
		grown := newRowTable(shards)
		copy(grown, nl.arenas[:cap(nl.arenas)])
		nl.arenas = grown
	}
	nl.arenas = nl.arenas[:shards]
	if !rebuild {
		last = pairEstimate(n, p.Box, p.Cutoff+nl.Skin)
	}
	for s, a := range nl.arenas {
		count := last / shards
		if rebuild && sameShards {
			count = len(a)
		}
		if cap(a) < count+count/16 || cap(a) > count+count/8+count/16+rowSlack {
			a = newRowArena(count + count/8 + rowSlack)
		}
		nl.arenas[s] = a[:0]
	}
}

// pairEstimate is the expected number of pairs within rl among n atoms
// spread uniformly over a periodic box of edge box: the half shell
// n·(2π/3)·ρ·rl³ with ρ = n/box³, capped at all n(n−1)/2 pairs. A
// non-finite estimate counts as no pairs; the arenas then grow as the
// build fills them.
func pairEstimate[T vec.Float](n int, box, rl T) int {
	all := float64(n) * float64(n-1) / 2
	r := float64(rl) / float64(box)
	est := float64(n) * float64(n) * (2 * math.Pi / 3) * r * r * r
	if !(est >= 0) {
		return 0
	}
	return int(min(est, all))
}

// rowTail returns an empty row at the end of shard's arena with room
// for k entries, growing the arena first if it has less room than
// that. A grown arena has twice the capacity plus k and takes a copy
// of the rows already filled, so its length stays the shard's count;
// the rows themselves stay valid where they are, in the old array,
// until the next build. The row's capacity is clamped to k, so an
// append past it could never overwrite the arena.
func (nl *NeighborList[T]) rowTail(shard, k int) []int32 {
	a := nl.arenas[shard]
	if cap(a)-len(a) < k {
		grown := newRowArena(2*cap(a) + k)[:len(a)]
		copy(grown, a)
		a = grown
		nl.arenas[shard] = a
	}
	return a[len(a) : len(a) : len(a)+k]
}

// commitRow makes row, filled from rowTail(shard, k), atom i's row and
// advances shard's arena past it.
func (nl *NeighborList[T]) commitRow(shard, i int, row []int32) {
	a := nl.arenas[shard]
	nl.arenas[shard] = a[:len(a)+len(row)]
	nl.pairs[i] = row[:len(row):len(row)]
}

// newRowTable and newRowArena are the list's two grow sites: the row
// table (and the per-shard arena headers), and a packed row arena.
// noinline pins each as a single ledger site.
//
//go:noinline
func newRowTable(n int) [][]int32 {
	return make([][]int32, n) //mdlint:ignore hotalloc amortized grow-once row table, reused while capacity suffices
}

//go:noinline
func newRowArena(n int) []int32 {
	return make([]int32, 0, n) //mdlint:ignore hotalloc amortized packed row arena; sized from the last build's count, grows when the count outgrows it
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
//
// On a grid of three or more cells per edge whose coordinates all lie
// in [0, box), each candidate is tested at its designated image: the
// one its stencil step implies, a box shift on each axis where the
// step crosses a box face. Each gathered run carries that step's wrap
// bits in the key bits above the ones the radix pass reads, and the
// copy unpacks them beside the positions. The test is then
// branch-free: (xi−xj)−shift per axis, the shifts looked up by the
// wrap bits, every candidate stored in the accept buffer and the
// count advanced by the accept bit. The rows are the minimum image's
// bit for bit (DESIGN §11). The one-cell grid, an out-of-box or NaN
// coordinate, an index too wide to leave room for the wrap bits, and
// a union larger than the accept buffer take the minimum-image loop
// instead.
func (nl *NeighborList[T]) BuildSpan(p Params[T], pos Coords[T], shard, lo, hi int) {
	g := &nl.grid
	rl := p.Cutoff + nl.Skin
	rl2 := rl * rl
	box := p.Box
	h := box / 2
	keyBits := bits.Len(uint(max(pos.Len()-1, 0)))
	wrapAt := radixBits(keyBits) // wrap bits sit above the bits the radix pass reads
	imaged := g.wrapped && wrapAt+3 < 32
	sc := g.gatherScratch(shard)
	var stencil [27]stencilCell
	// The first cell whose run ends past lo holds slot lo.
	c, _ := slices.BinarySearch(g.starts[1:], int32(lo+1))
	for ; lo < hi; c++ {
		home := g.order[lo:min(hi, int(g.starts[c+1]))]
		if len(home) == 0 {
			continue
		}
		lo += len(home)
		union := sc.union[:0]
		runs := 0
		for _, s := range g.neighborCells(c, stencil[:]) {
			run := g.order[g.starts[s.cell]:g.starts[s.cell+1]]
			k, _ := slices.BinarySearch(run, home[0]+1)
			if k == len(run) {
				continue
			}
			from := len(union)
			union = append(union, run[k:]...)
			runs++
			if imaged && s.wrap != 0 {
				tag := s.wrap << wrapAt
				for u := from; u < len(union); u++ {
					union[u] |= tag
				}
			}
		}
		if runs > 1 {
			union = radixSortIndices(union, sc.tmp[:len(union)], keyBits)
		}
		n := len(union)
		ux, uy, uz := sc.pos.X[:n], sc.pos.Y[:n], sc.pos.Z[:n]
		var wraps []int32
		var shifts [8][3]T
		if imaged {
			wraps, shifts = sc.wraps[:n], g.faceShifts(c)
			mask := int32(1)<<wrapAt - 1
			for k, key := range union {
				j := key & mask
				union[k], wraps[k] = j, key>>wrapAt
				ux[k], uy[k], uz[k] = pos.X[j], pos.Y[j], pos.Z[j]
			}
		} else {
			for k, j := range union {
				ux[k], uy[k], uz[k] = pos.X[j], pos.Y[j], pos.Z[j]
			}
		}

		cur := 0
		for _, i := range home {
			for cur < n && union[cur] <= i {
				cur++
			}
			xi, yi, zi := pos.X[i], pos.Y[i], pos.Z[i]
			if imaged && n <= acceptCap {
				m := acceptImaged(xi, yi, zi, rl2, &shifts, union[cur:], wraps[cur:], ux[cur:], uy[cur:], uz[cur:], sc.accept)
				nl.commitRow(shard, int(i), append(nl.rowTail(shard, m), sc.accept[:m]...))
				continue
			}
			// The candidates past i and their positions, each plane
			// resliced to them and then to their count: that tells the
			// compiler all four slices have one length, so the test
			// indexes them without bounds checks.
			cand := union[cur:]
			xs, ys, zs := ux[cur:], uy[cur:], uz[cur:]
			xs, ys, zs = xs[:len(cand)], ys[:len(cand)], zs[:len(cand)]
			row := nl.rowTail(shard, len(cand))
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
			nl.commitRow(shard, int(i), row)
		}
	}
}

// acceptImaged writes into out, in order, the candidates within rl2 of
// (xi, yi, zi), each at its designated image: shifts[w] holds the x, y
// and z shifts for wrap bits w, and wraps holds each candidate's. It
// returns their count. Every candidate is stored at the next free slot
// and the count advances by the accept bit, so the loop has no branch
// on the test; len(cand) <= acceptCap keeps every store inside out.
func acceptImaged[T vec.Float](xi, yi, zi, rl2 T, shifts *[8][3]T, cand, wraps []int32, xs, ys, zs []T, out *[acceptCap]int32) int {
	// Each plane resliced to the candidate count lets the compiler drop
	// the bounds checks; masking the slot and the wrap bits does the
	// same for out and shifts.
	wraps, xs, ys, zs = wraps[:len(cand)], xs[:len(cand)], ys[:len(cand)], zs[:len(cand)]
	m := 0
	// bce:begin
	for k, j := range cand {
		s := &shifts[wraps[k]&7]
		dx := (xi - xs[k]) - s[0]
		dy := (yi - ys[k]) - s[1]
		dz := (zi - zs[k]) - s[2]
		out[m&(acceptCap-1)] = j
		in := 0
		if dx*dx+dy*dy+dz*dz < rl2 {
			in = 1
		}
		m += in
	}
	// bce:end
	return m
}

// radixBits returns how many low key bits radixSortIndices reads for
// keys below 1<<keyBits: its pass count times its digit width, which
// can exceed keyBits. Bits above them ride through the sort with their
// key.
func radixBits(keyBits int) int {
	passes := (keyBits + 7) / 8
	if passes == 0 {
		return 0
	}
	return passes * ((keyBits + passes - 1) / passes)
}

// radixSortIndices sorts keys, distinct atom indices below 1<<keyBits
// in their low radixBits(keyBits) bits, ascending by those bits with an
// LSD radix in as few byte-or-narrower digits as cover them,
// ping-ponging with tmp (len(tmp) == len(keys)). Higher key bits are
// carried, not sorted. It returns whichever buffer holds the result.
// Linear in len(keys) plus one digit table per pass, with the table on
// the stack.
func radixSortIndices(keys, tmp []int32, keyBits int) []int32 {
	passes := (keyBits + 7) / 8
	if passes == 0 {
		return keys
	}
	width := radixBits(keyBits) / passes
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
// check, and the build counter. BeginBuild drops the reference
// positions, so a build abandoned before EndBuild (a cancelled
// parallel build) leaves a list that Stale reports stale, and the next
// evaluation rebuilds: a half-filled row table is never trusted. The
// per-plane appends are amortized grow-once and invisible to the
// steady state.
func (nl *NeighborList[T]) EndBuild(pos Coords[T]) {
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
// much work the list saves versus the N(N-1)/2 full scan: the sum of
// the shard arenas' lengths, so O(shards) rather than a walk over the
// rows.
func (nl *NeighborList[T]) PairCount() int {
	total := 0
	for _, a := range nl.arenas {
		total += len(a)
	}
	return total
}
