// Package vec is a fixture for the precision analyzer. Its import path
// ends in /vec and its package name is vec, so it lands in the
// analyzer's kernel-package scope and exercises the audited-helper
// allowlist.
package vec

// narrow silently drops mantissa bits: flagged.
func narrow(x float64) float32 {
	return float32(x) // want precision
}

// widen silently creates a double-precision island: flagged.
func widen(x float32) float64 {
	return float64(x) // want precision
}

// Sqrt matches an audited widen-compute-narrow helper name in package
// vec: its internal conversions are the helper's whole point and are
// not flagged.
func Sqrt(x float32) float32 {
	return float32(halve(float64(x)))
}

func halve(x float64) float64 { return x / 2 }

// sqrtAlike widens the way Sqrt does but is NOT an allowlisted name,
// so its widening must surface: the allowlist is by identity, not by
// shape.
func sqrtAlike(x float32) float64 {
	return halve(float64(x)) // want precision
}

// fromConst converts an untyped constant: no width change, not flagged.
func fromConst() float32 { return float32(1.5) }

// fromInt converts an integer: no width change, not flagged.
func fromInt(n int) float32 { return float32(n) }

// sameWidth keeps the width: not flagged.
func sameWidth(x float32) float32 { return float32(x) }

// narrowSuppressed carries the annotation, so the finding must not
// surface.
func narrowSuppressed(x float64) float32 {
	return float32(x) //mdlint:ignore precision fixture: proves suppression silences the finding
}
