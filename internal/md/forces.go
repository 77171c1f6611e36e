package md

import "repro/internal/vec"

// LJ is the Lennard-Jones pair potential of one Params, with the
// per-call constants a kernel would otherwise re-derive on every pair
// (the ε and σ defaults, σ², 4ε, 24ε and the cutoff shift) evaluated
// once. Build it with NewLJ outside a pair loop and call Pair inside
// it: this is the host form of the paper's Fig 5 "hoist constants"
// step, and the one body every LJ kernel in the repository shares.
type LJ[T vec.Float] struct {
	sig2, eps4, eps24 T
	shift             T // V(r_c) of the unshifted potential, or 0
}

// NewLJ precomputes p's pair constants. Each constant is the same
// expression, evaluated in the same order, that the per-pair body
// used before it was hoisted ((4*eps)*(…), (sig*sig)/r2, ...), so
// Pair is bit for bit what an unhoisted evaluation gives. The shift
// is 0 for the plain truncated potential; subtracting a +0 leaves
// every value, -0 included, unchanged.
func NewLJ[T vec.Float](p Params[T]) LJ[T] {
	eps, sig := p.Epsilon1(), p.Sigma1()
	lj := LJ[T]{sig2: sig * sig, eps4: 4 * eps, eps24: 24 * eps}
	if p.Shifted {
		lj.shift, _ = lj.Pair(p.Cutoff * p.Cutoff)
	}
	return lj
}

// Pair returns the pair quantities for a squared distance r2: the
// potential energy v and the scalar f such that the force on atom i
// from atom j is f * (r_i - r_j).
//
//	V(r)  = 4ε[(σ/r)¹² − (σ/r)⁶]          (− V(r_c) if Shifted)
//	f(r)  = 24ε[2(σ/r)¹² − (σ/r)⁶] / r²
//
// Callers are responsible for the cutoff test; Pair assumes r2 > 0.
func (lj LJ[T]) Pair(r2 T) (v, f T) {
	sr2 := lj.sig2 / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	v = lj.eps4*(sr12-sr6) - lj.shift
	f = lj.eps24 * (2*sr12 - sr6) / r2
	return v, f
}

// MinImage returns the minimum-image displacement of d in a cubic
// periodic box, using the branch form ("if" test per axis): the
// formulation the paper's original SPE kernel uses before the copysign
// optimization. d must be a difference of wrapped coordinates, i.e.
// each component in (-box, box).
func MinImage[T vec.Float](d vec.V3[T], box T) vec.V3[T] {
	h := box / 2
	return vec.V3[T]{X: minImage1(d.X, box, h), Y: minImage1(d.Y, box, h), Z: minImage1(d.Z, box, h)}
}

// minImage1 is MinImage along one axis, with h = box/2: the scalar
// form the SoA pair loops apply to each plane's difference.
func minImage1[T vec.Float](d, box, h T) T {
	if d > h {
		return d - box
	} else if d < -h {
		return d + box
	}
	return d
}

// MinImageCopysign returns the minimum-image displacement using the
// branch-free copysign form the paper substitutes on the SPE ("replace
// 'if' with 'copysign'", Figure 5). Same precondition as MinImage.
func MinImageCopysign[T vec.Float](d vec.V3[T], box T) vec.V3[T] {
	h := box / 2
	// step(|d|-h) * copysign(box, d): subtract a full box with the sign
	// of d whenever |d| exceeds half the box, without data-dependent
	// control flow on the value of d itself.
	d.X -= vec.Copysign(box, d.X) * step(vec.Abs(d.X)-h)
	d.Y -= vec.Copysign(box, d.Y) * step(vec.Abs(d.Y)-h)
	d.Z -= vec.Copysign(box, d.Z) * step(vec.Abs(d.Z)-h)
	return d
}

// step returns 1 if x > 0 and 0 otherwise (the Heaviside step used to
// build branch-free selects).
func step[T vec.Float](x T) T {
	if x > 0 {
		return 1
	}
	return 0
}

// MinImage27 returns the minimum-image displacement by explicitly
// searching the 27 neighboring unit cells for the closest instance of
// the pair — the exhaustive formulation the paper describes as "one
// expensive part of this acceleration computation" (section 5.1). It is
// valid for any d with components in (-box, box) and is the oracle the
// cheaper forms are property-tested against.
func MinImage27[T vec.Float](d vec.V3[T], box T) vec.V3[T] {
	best := d
	best2 := d.Norm2()
	for sx := -1; sx <= 1; sx++ {
		for sy := -1; sy <= 1; sy++ {
			for sz := -1; sz <= 1; sz++ {
				c := vec.V3[T]{
					X: d.X + T(sx)*box,
					Y: d.Y + T(sy)*box,
					Z: d.Z + T(sz)*box,
				}
				if r2 := c.Norm2(); r2 < best2 {
					best, best2 = c, r2
				}
			}
		}
	}
	return best
}

// ComputeForces evaluates the reference force kernel: for each atom,
// scan all other atoms, form the on-the-fly minimum-image distance, and
// accumulate the Lennard-Jones acceleration for pairs inside the
// cutoff. acc is overwritten; the return value is the total potential
// energy. This is the double loop every device in the paper offloads.
func ComputeForces[T vec.Float](p Params[T], pos Coords[T], acc Coords[T]) T {
	acc.Zero()
	lj := NewLJ(p)
	rc2 := p.Cutoff * p.Cutoff
	var pe T
	n := pos.Len()
	for i := 0; i < n; i++ {
		pi := pos.At(i)
		for j := i + 1; j < n; j++ {
			d := MinImage(pi.Sub(pos.At(j)), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			v, f := lj.Pair(r2)
			pe += v
			fd := d.Scale(f)
			acc.Add(i, fd)
			acc.Sub(j, fd)
		}
	}
	return pe
}

// ComputeForcesFullCount is ComputeForcesFull plus a count of the
// ordered interacting pairs (i,j) it found inside the cutoff. Device
// models use the count to scale the data-dependent part of their cycle
// ledgers without a second pass over the pairs.
func ComputeForcesFullCount[T vec.Float](p Params[T], pos Coords[T], acc Coords[T]) (pe T, interacting int64) {
	pe, interacting = ComputeForcesFullRows(p, pos, acc, 0, pos.Len())
	return pe / 2, interacting
}

// ComputeForcesFullRows is the full-loop kernel over the atom rows
// [lo, hi): each atom i in the range gathers over all N-1 others and
// its acceleration is written to acc[i]; no other row of acc is
// touched. It returns the rows' potential energy summed in row order
// and not yet halved (each pair is seen from both sides), and the
// count of ordered interacting pairs. Rows are independent, so the
// parallel engine shards this one loop by atom range.
func ComputeForcesFullRows[T vec.Float](p Params[T], pos Coords[T], acc Coords[T], lo, hi int) (pe T, interacting int64) {
	lj := NewLJ(p)
	rc2 := p.Cutoff * p.Cutoff
	n := pos.Len()
	for i := lo; i < hi; i++ {
		pi := pos.At(i)
		var ai vec.V3[T]
		var pei T
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := MinImage(pi.Sub(pos.At(j)), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			interacting++
			v, f := lj.Pair(r2)
			pei += v
			ai = ai.Add(d.Scale(f))
		}
		acc.Set(i, ai)
		pe += pei
	}
	return pe, interacting
}

// ComputeForcesFull evaluates the same kernel with the full N² loop
// (every atom scans all N-1 others, each pair visited twice) instead of
// the half-triangle loop. This is the data layout the GPU and the
// per-SPE partitions use, where atom i's acceleration must be computable
// independently of every other atom's. The two formulations agree to
// rounding; tests pin that down.
func ComputeForcesFull[T vec.Float](p Params[T], pos Coords[T], acc Coords[T]) T {
	pe, _ := ComputeForcesFullCount(p, pos, acc)
	return pe
}
