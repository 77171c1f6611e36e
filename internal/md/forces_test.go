package md

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

// testParams is a typical reduced-units setup with the cutoff safely
// below half the box.
func testParams(box float64) Params[float64] {
	return Params[float64]{Box: box, Cutoff: 2.5, Dt: 0.004}
}

// inBox maps an arbitrary float into (-box, box), the precondition for
// the minimum-image helpers.
func inBox(x, box float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.25 * box
	}
	return math.Mod(x, box*0.999)
}

func TestMinImageVariantsAgree(t *testing.T) {
	const box = 10.0
	prop := func(dx, dy, dz float64) bool {
		d := vec.V3[float64]{X: inBox(dx, box), Y: inBox(dy, box), Z: inBox(dz, box)}
		a := MinImage(d, box)
		b := MinImageCopysign(d, box)
		c := MinImage27(d, box)
		// The 27-cell search may pick a different but equidistant image
		// when a component is exactly ±box/2; compare norms, then
		// components with a tolerance for ties.
		tol := 1e-12
		return math.Abs(a.Norm2()-c.Norm2()) < tol && math.Abs(b.Norm2()-c.Norm2()) < tol &&
			a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinImageBounds(t *testing.T) {
	const box = 7.0
	prop := func(dx, dy, dz float64) bool {
		d := vec.V3[float64]{X: inBox(dx, box), Y: inBox(dy, box), Z: inBox(dz, box)}
		m := MinImage(d, box)
		h := box/2 + 1e-9
		return math.Abs(m.X) <= h && math.Abs(m.Y) <= h && math.Abs(m.Z) <= h
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinImageIsShortest(t *testing.T) {
	// The minimum image must be at least as short as the raw difference.
	const box = 5.0
	prop := func(dx, dy, dz float64) bool {
		d := vec.V3[float64]{X: inBox(dx, box), Y: inBox(dy, box), Z: inBox(dz, box)}
		return MinImage(d, box).Norm2() <= d.Norm2()+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinImageIdempotent(t *testing.T) {
	const box = 9.0
	prop := func(dx, dy, dz float64) bool {
		d := vec.V3[float64]{X: inBox(dx, box), Y: inBox(dy, box), Z: inBox(dz, box)}
		m := MinImage(d, box)
		return MinImage(m, box) == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinImageFloat32(t *testing.T) {
	const box float32 = 10
	d := vec.V3[float32]{X: 6, Y: -6, Z: 1}
	m := MinImage(d, box)
	want := vec.V3[float32]{X: -4, Y: 4, Z: 1}
	if m != want {
		t.Fatalf("MinImage float32 = %+v, want %+v", m, want)
	}
	if mc := MinImageCopysign(d, box); mc != want {
		t.Fatalf("MinImageCopysign float32 = %+v, want %+v", mc, want)
	}
}

func TestLJPairMinimumAtR0(t *testing.T) {
	// The LJ force vanishes at r = 2^(1/6) sigma and the potential there
	// is -epsilon.
	p := testParams(20)
	r0 := math.Pow(2, 1.0/6)
	v, f := NewLJ(p).Pair(r0 * r0)
	if math.Abs(v-(-1)) > 1e-12 {
		t.Fatalf("V(r0) = %v, want -1", v)
	}
	if math.Abs(f) > 1e-12 {
		t.Fatalf("f(r0) = %v, want 0", f)
	}
}

func TestLJPairSigns(t *testing.T) {
	p := testParams(20)
	r0 := math.Pow(2, 1.0/6)
	// Repulsive inside the minimum: f > 0 (force pushes atoms apart,
	// since F_i = f*(r_i - r_j)).
	if _, f := NewLJ(p).Pair(0.9 * 0.9); f <= 0 {
		t.Fatalf("f(0.9) = %v, want > 0 (repulsive)", f)
	}
	// Attractive outside the minimum.
	if _, f := NewLJ(p).Pair((r0 + 0.5) * (r0 + 0.5)); f >= 0 {
		t.Fatalf("f(r0+0.5) = %v, want < 0 (attractive)", f)
	}
	// Potential positive at short range, negative at the well.
	if v, _ := NewLJ(p).Pair(0.8 * 0.8); v <= 0 {
		t.Fatalf("V(0.8) = %v, want > 0", v)
	}
}

func TestLJPairShifted(t *testing.T) {
	p := testParams(20)
	ps := p
	ps.Shifted = true
	// At the cutoff the shifted potential is zero.
	v, _ := NewLJ(ps).Pair(p.Cutoff * p.Cutoff)
	if math.Abs(v) > 1e-15 {
		t.Fatalf("shifted V(rc) = %v, want 0", v)
	}
	// The shift does not change forces.
	_, f1 := NewLJ(p).Pair(1.21)
	_, f2 := NewLJ(ps).Pair(1.21)
	if f1 != f2 {
		t.Fatalf("shift changed force: %v != %v", f1, f2)
	}
}

func TestLJPairForceIsNegativeGradient(t *testing.T) {
	// f*(r vector) should equal -dV/dr * r_hat; check numerically.
	p := testParams(20)
	for _, r := range []float64{0.95, 1.1, 1.5, 2.0, 2.4} {
		const h = 1e-6
		vPlus, _ := NewLJ(p).Pair((r + h) * (r + h))
		vMinus, _ := NewLJ(p).Pair((r - h) * (r - h))
		dVdr := (vPlus - vMinus) / (2 * h)
		_, f := NewLJ(p).Pair(r * r)
		// Force magnitude along r_hat is f*r; it must equal -dV/dr.
		if math.Abs(f*r+dVdr) > 1e-4*(1+math.Abs(dVdr)) {
			t.Fatalf("r=%v: f*r = %v, -dV/dr = %v", r, f*r, -dVdr)
		}
	}
}

func TestLJPairCustomEpsilonSigma(t *testing.T) {
	p := Params[float64]{Box: 50, Cutoff: 10, Dt: 0.001, Epsilon: 2, Sigma: 1.5}
	r0 := 1.5 * math.Pow(2, 1.0/6)
	v, f := NewLJ(p).Pair(r0 * r0)
	if math.Abs(v-(-2)) > 1e-12 {
		t.Fatalf("V(r0) = %v, want -2 (epsilon=2)", v)
	}
	if math.Abs(f) > 1e-12 {
		t.Fatalf("f(r0) = %v, want 0", f)
	}
}

func TestParamsValidate(t *testing.T) {
	for _, good := range []Params[float64]{
		{Box: 10, Cutoff: 2.5, Dt: 0.004},
		{Box: 10, Cutoff: 2.5, Dt: 0.004, Epsilon: 1.3, Sigma: 0.9}, // 0 above means the default
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("valid params %+v rejected: %v", good, err)
		}
	}
	bad := []Params[float64]{
		{Box: 0, Cutoff: 2.5, Dt: 0.004},
		{Box: 10, Cutoff: 0, Dt: 0.004},
		{Box: 10, Cutoff: 2.5, Dt: 0},
		{Box: 4, Cutoff: 2.5, Dt: 0.004}, // cutoff > box/2
		{Box: math.NaN(), Cutoff: 2.5, Dt: 0.004},
		{Box: math.Inf(1), Cutoff: 2.5, Dt: 0.004},
		{Box: 10, Cutoff: math.Inf(1), Dt: 0.004},
		{Box: 10, Cutoff: 2.5, Dt: math.Inf(1)},
		{Box: 10, Cutoff: 2.5, Dt: math.NaN()},
		{Box: 10, Cutoff: 2.5, Dt: 0.004, Epsilon: math.NaN()},
		{Box: 10, Cutoff: 2.5, Dt: 0.004, Epsilon: -1},
		{Box: 10, Cutoff: 2.5, Dt: 0.004, Epsilon: math.Inf(1)},
		{Box: 10, Cutoff: 2.5, Dt: 0.004, Sigma: math.Inf(1)},
		{Box: 10, Cutoff: 2.5, Dt: 0.004, Sigma: math.NaN()},
		{Box: 10, Cutoff: 2.5, Dt: 0.004, Sigma: -0.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid params", p)
		}
	}
}

// threeAtoms builds a tiny hand-checkable configuration.
func threeAtoms() (Params[float64], []vec.V3[float64]) {
	p := testParams(20)
	pos := []vec.V3[float64]{
		{X: 5, Y: 5, Z: 5},
		{X: 6.1, Y: 5, Z: 5},
		{X: 5, Y: 6.2, Z: 5},
	}
	return p, pos
}

func TestComputeForcesNewtonThirdLaw(t *testing.T) {
	p, posV := threeAtoms()
	pos := CoordsFromV3(posV)
	acc := MakeCoords[float64](pos.Len())
	ComputeForces(p, pos, acc)
	var net vec.V3[float64]
	for _, a := range acc.V3s() {
		net = net.Add(a)
	}
	if net.Norm() > 1e-12 {
		t.Fatalf("net force %v, want 0 (Newton's third law)", net)
	}
}

func TestComputeForcesMatchesFullLoop(t *testing.T) {
	p, posV := threeAtoms()
	pos := CoordsFromV3(posV)
	a1 := MakeCoords[float64](pos.Len())
	a2 := MakeCoords[float64](pos.Len())
	pe1 := ComputeForces(p, pos, a1)
	pe2 := ComputeForcesFull(p, pos, a2)
	if math.Abs(pe1-pe2) > 1e-12*(1+math.Abs(pe1)) {
		t.Fatalf("PE mismatch: half-loop %v, full-loop %v", pe1, pe2)
	}
	for i := 0; i < a1.Len(); i++ {
		if a1.At(i).Sub(a2.At(i)).Norm() > 1e-9*(1+a1.At(i).Norm()) {
			t.Fatalf("acc[%d] mismatch: %+v vs %+v", i, a1.At(i), a2.At(i))
		}
	}
}

func TestComputeForcesCutoffRespected(t *testing.T) {
	// Two atoms beyond the cutoff: zero force, zero PE.
	p := testParams(20)
	pos := CoordsFromV3([]vec.V3[float64]{{X: 1, Y: 1, Z: 1}, {X: 1 + p.Cutoff + 0.1, Y: 1, Z: 1}})
	acc := MakeCoords[float64](2)
	pe := ComputeForces(p, pos, acc)
	if pe != 0 || acc.At(0).Norm2() != 0 || acc.At(1).Norm2() != 0 {
		t.Fatalf("interaction beyond cutoff: pe=%v acc=%v", pe, acc)
	}
}

func TestComputeForcesAcrossBoundary(t *testing.T) {
	// Two atoms adjacent across the periodic boundary must interact as
	// if they were 1.0 apart, not box-1.0 apart.
	p := testParams(10)
	pos := CoordsFromV3([]vec.V3[float64]{{X: 0.5, Y: 5, Z: 5}, {X: 9.5, Y: 5, Z: 5}})
	acc := MakeCoords[float64](2)
	pe := ComputeForces(p, pos, acc)
	wantV, wantF := NewLJ(p).Pair(1.0)
	if math.Abs(pe-wantV) > 1e-12 {
		t.Fatalf("PE across boundary = %v, want %v", pe, wantV)
	}
	// d = pos0 - pos1 min-imaged = +1 in x, so acc[0].X = f*1.
	if math.Abs(acc.X[0]-wantF) > 1e-12 {
		t.Fatalf("acc[0].X = %v, want %v", acc.X[0], wantF)
	}
}

func TestComputeForcesOverwritesAcc(t *testing.T) {
	p, posV := threeAtoms()
	pos := CoordsFromV3(posV)
	acc := MakeCoords[float64](pos.Len())
	for i := 0; i < acc.Len(); i++ {
		acc.Set(i, vec.V3[float64]{X: 99, Y: 99, Z: 99}) // stale garbage
	}
	ComputeForces(p, pos, acc)
	fresh := MakeCoords[float64](pos.Len())
	ComputeForces(p, pos, fresh)
	for i := 0; i < acc.Len(); i++ {
		if acc.At(i) != fresh.At(i) {
			t.Fatalf("acc not overwritten at %d", i)
		}
	}
}

func TestWrapInvariant(t *testing.T) {
	const box = 3.0
	prop := func(x, y, z float64) bool {
		p := vec.V3[float64]{
			X: math.Mod(nonNaN(x), 10*box), Y: math.Mod(nonNaN(y), 10*box), Z: math.Mod(nonNaN(z), 10*box),
		}
		w := Wrap(p, box)
		return w.X >= 0 && w.X < box && w.Y >= 0 && w.Y < box && w.Z >= 0 && w.Z < box
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func nonNaN(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1.5
	}
	return x
}

// TestWrapIsTotal pins the fold against pathological coordinates: a
// fault-corrupted force can push a position to ±Inf (or astronomically
// far) mid-step, before any watchdog runs. Wrap must terminate on every
// input — non-finite coordinates come back NaN for the health check to
// catch, huge finite drift still folds into [0, box).
func TestWrapIsTotal(t *testing.T) {
	const box = 3.0
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		w := Wrap(vec.V3[float64]{X: x, Y: 1, Z: 1}, box)
		if !math.IsNaN(w.X) {
			t.Fatalf("Wrap(%v) = %v, want NaN passthrough", x, w.X)
		}
		if w.Y != 1 || w.Z != 1 {
			t.Fatalf("finite components disturbed: %+v", w)
		}
	}
	for _, x := range []float64{1e300, -1e300, 12345678.9, -12345678.9} {
		w := Wrap(vec.V3[float64]{X: x, Y: 1, Z: 1}, box)
		if !(w.X >= 0 && w.X < box) {
			t.Fatalf("Wrap(%v) = %v, outside [0, %v)", x, w.X, box)
		}
	}
}
