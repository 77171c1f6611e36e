package md

import "repro/internal/vec"

// Coords is the structure-of-arrays layout of the hot state: one
// contiguous plane per component instead of a slice of 3-vectors. This
// is the layout the paper's throughput ports actually compute over —
// De Fabritiis's Cell kernels and Elsen's GPU N-body both stream
// per-component arrays through SIMD lanes — and it is what lets the
// integrator loops run plane-wise (auto-vectorizable, one stream per
// component) while the pair kernels gather V3 views per atom.
//
// Bitwise contract: every kernel that moved from []vec.V3 to Coords
// performs the identical floating-point operations in the identical
// order. At/Set/Add/Sub reproduce the old element load/store/Add/Sub
// exactly (three independent component ops), and the plane-wise loops
// below are only used where components never mix (wrap, kick, drift,
// scale), so reordering across atoms within one component plane cannot
// change any result bit. TestSoATrajectoryGoldens pins this against
// trajectories recorded from the AoS build.
//
// Ownership: the three planes are normally carved from one arena (see
// MakeCoords) using three-index slices, so no plane can grow into its
// neighbor. Coords is a view — copying the struct aliases the same
// planes. Methods that reslice (Resize) take a pointer receiver.
type Coords[T vec.Float] struct {
	X, Y, Z []T
}

// MakeCoords allocates an n-element coordinate set backed by a single
// arena. The planes are capacity-clamped so appending to one can never
// bleed into the next. Noinline keeps the arena allocation attributed
// to this one audited site instead of smearing copies of it into every
// caller the compiler would inline it into.
//
//go:noinline
func MakeCoords[T vec.Float](n int) Coords[T] { //mdlint:ignore hotalloc construction-time arena; steady-state stepping reuses it and never re-enters
	arena := make([]T, 3*n)
	return coordsOver(arena, n)
}

// coordsOver carves three n-element planes from the front of arena
// (which must hold at least 3n elements).
func coordsOver[T vec.Float](arena []T, n int) Coords[T] {
	return Coords[T]{
		X: arena[0*n : 1*n : 1*n],
		Y: arena[1*n : 2*n : 2*n],
		Z: arena[2*n : 3*n : 3*n],
	}
}

// CoordsFromV3 builds an arena-backed Coords holding a copy of src —
// the adapter between the AoS world (lattice states, parsed
// trajectory frames, tests) and the SoA hot state.
func CoordsFromV3[T vec.Float](src []vec.V3[T]) Coords[T] {
	c := MakeCoords[T](len(src))
	c.Scatter(src)
	return c
}

// Len returns the number of elements.
func (c Coords[T]) Len() int { return len(c.X) }

// At gathers element i as a V3 — the SoA equivalent of the old
// pos[i] load (three independent component loads).
func (c Coords[T]) At(i int) vec.V3[T] {
	return vec.V3[T]{X: c.X[i], Y: c.Y[i], Z: c.Z[i]}
}

// Set scatters v into element i — the SoA equivalent of pos[i] = v.
func (c Coords[T]) Set(i int, v vec.V3[T]) {
	c.X[i], c.Y[i], c.Z[i] = v.X, v.Y, v.Z
}

// Add folds v into element i with three independent component
// additions — bit-for-bit the old acc[i] = acc[i].Add(v).
func (c Coords[T]) Add(i int, v vec.V3[T]) {
	c.X[i] += v.X
	c.Y[i] += v.Y
	c.Z[i] += v.Z
}

// Sub is the Newton's-third-law counterpart of Add:
// acc[i] = acc[i].Sub(v).
func (c Coords[T]) Sub(i int, v vec.V3[T]) {
	c.X[i] -= v.X
	c.Y[i] -= v.Y
	c.Z[i] -= v.Z
}

// Zero clears every element (the per-evaluation accumulator reset).
func (c Coords[T]) Zero() {
	for i := range c.X {
		c.X[i] = 0
	}
	for i := range c.Y {
		c.Y[i] = 0
	}
	for i := range c.Z {
		c.Z[i] = 0
	}
}

// finite reports whether every coordinate is finite: x-x is 0 for a
// finite x and NaN for NaN and ±Inf.
func (c Coords[T]) finite() bool {
	for _, plane := range [3][]T{c.X, c.Y, c.Z} {
		for _, x := range plane {
			if x-x != 0 {
				return false
			}
		}
	}
	return true
}

// CopyFrom copies src's elements into c. Lengths must match.
func (c Coords[T]) CopyFrom(src Coords[T]) {
	copy(c.X, src.X)
	copy(c.Y, src.Y)
	copy(c.Z, src.Z)
}

// Scatter copies the AoS src into the planes. Lengths must match.
func (c Coords[T]) Scatter(src []vec.V3[T]) {
	for i, v := range src {
		c.X[i], c.Y[i], c.Z[i] = v.X, v.Y, v.Z
	}
}

// Gather appends c's elements to dst as V3s and returns it — the
// SoA→AoS adapter for snapshot consumers.
func (c Coords[T]) Gather(dst []vec.V3[T]) []vec.V3[T] {
	for i := range c.X {
		dst = append(dst, vec.V3[T]{X: c.X[i], Y: c.Y[i], Z: c.Z[i]})
	}
	return dst
}

// V3s returns c's elements as a freshly allocated AoS slice.
func (c Coords[T]) V3s() []vec.V3[T] {
	return c.Gather(make([]vec.V3[T], 0, c.Len()))
}

// Resize reslices c to n elements, reusing the existing arena when its
// capacity suffices and allocating a fresh one otherwise. Contents are
// preserved up to min(old, new) per plane when the arena is reused and
// undefined after a reallocation; callers that resize always refill.
func (c *Coords[T]) Resize(n int) {
	if cap(c.X) >= n && cap(c.Y) >= n && cap(c.Z) >= n {
		c.X, c.Y, c.Z = c.X[:n], c.Y[:n], c.Z[:n]
		return
	}
	*c = MakeCoords[T](n) //mdlint:ignore hotalloc amortized grow-once arena, reused while capacity suffices
}
