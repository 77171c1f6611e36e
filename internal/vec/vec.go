// Package vec provides small fixed-size vector math over either float32
// or float64, shared by the molecular-dynamics engine and the device
// models.
//
// The paper's kernels run in single precision on the Cell SPEs and the
// GPU and in double precision on the MTA-2 and the Opteron baseline, so
// every geometric helper here is generic over the element type; the MD
// engine instantiates the same formulas at both widths and the tests
// quantify the drift between them.
package vec

import "math"

// Float is the constraint satisfied by the two IEEE-754 widths the
// paper's ports use.
type Float interface {
	~float32 | ~float64
}

// V3 is a three-component vector: a position, velocity, acceleration, or
// force in the MD state.
type V3[T Float] struct {
	X, Y, Z T
}

// Add returns a + b.
func (a V3[T]) Add(b V3[T]) V3[T] { return V3[T]{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V3[T]) Sub(b V3[T]) V3[T] { return V3[T]{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a.
func (a V3[T]) Scale(s T) V3[T] { return V3[T]{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the inner product a·b.
func (a V3[T]) Dot(b V3[T]) T { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Norm2 returns |a|², the squared Euclidean length.
func (a V3[T]) Norm2() T { return a.Dot(a) }

// Norm returns |a|.
func (a V3[T]) Norm() T { return Sqrt(a.Norm2()) }

// MulAdd returns a + s*b, the fused update used throughout the Verlet
// integrator.
func (a V3[T]) MulAdd(s T, b V3[T]) V3[T] {
	return V3[T]{a.X + s*b.X, a.Y + s*b.Y, a.Z + s*b.Z}
}

// Sqrt is a generic square root, computed at the precision of T: for
// float32 it rounds a float64 result back to float32, matching what a
// single-precision machine produces for correctly-rounded inputs.
func Sqrt[T Float](x T) T { return T(math.Sqrt(float64(x))) }

// Abs returns |x|.
func Abs[T Float](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// Copysign returns a value with the magnitude of mag and the sign of
// sign. This is the branch-free primitive the paper substitutes for an
// "if" in the SPE unit-cell search (SPEs have no branch prediction).
func Copysign[T Float](mag, sign T) T {
	return T(math.Copysign(float64(mag), float64(sign)))
}

// Floor returns the largest integer value <= x, at the precision of T.
func Floor[T Float](x T) T { return T(math.Floor(float64(x))) }

// Round returns x rounded to the nearest integer, half away from zero.
func Round[T Float](x T) T { return T(math.Round(float64(x))) }

// Min returns the smaller of a and b.
func Min[T Float](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max[T Float](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp[T Float](x, lo, hi T) T {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FromV3f64 narrows a float64 vector to precision T.
func FromV3f64[T Float](a V3[float64]) V3[T] {
	return V3[T]{T(a.X), T(a.Y), T(a.Z)}
}
