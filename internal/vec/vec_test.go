package vec

import (
	"math"
	"testing"
	"testing/quick"
)

// small bounds the magnitude of quick-generated floats so products stay
// finite and comparisons stay meaningful.
func small(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e6)
}

func v3(a, b, c float64) V3[float64] { return V3[float64]{small(a), small(b), small(c)} }

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestAddSubRoundTrip(t *testing.T) {
	prop := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := v3(ax, ay, az), v3(bx, by, bz)
		r := a.Add(b).Sub(b)
		return approx(r.X, a.X, 1e-12) && approx(r.Y, a.Y, 1e-12) && approx(r.Z, a.Z, 1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotSymmetry(t *testing.T) {
	prop := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := v3(ax, ay, az), v3(bx, by, bz)
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleDistributesOverAdd(t *testing.T) {
	prop := func(ax, ay, az, bx, by, bz, sRaw float64) bool {
		s := small(sRaw)
		a, b := v3(ax, ay, az), v3(bx, by, bz)
		l := a.Add(b).Scale(s)
		r := a.Scale(s).Add(b.Scale(s))
		return approx(l.X, r.X, 1e-9) && approx(l.Y, r.Y, 1e-9) && approx(l.Z, r.Z, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2NonNegative(t *testing.T) {
	prop := func(ax, ay, az float64) bool {
		return v3(ax, ay, az).Norm2() >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMatchesDot(t *testing.T) {
	prop := func(ax, ay, az float64) bool {
		a := v3(ax, ay, az)
		return approx(a.Norm()*a.Norm(), a.Norm2(), 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAddMatchesExplicit(t *testing.T) {
	prop := func(ax, ay, az, bx, by, bz, sRaw float64) bool {
		s := small(sRaw)
		a, b := v3(ax, ay, az), v3(bx, by, bz)
		l := a.MulAdd(s, b)
		r := a.Add(b.Scale(s))
		return l == r
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopysignSemantics(t *testing.T) {
	cases := []struct{ mag, sign, want float64 }{
		{3, -1, -3},
		{3, 1, 3},
		{-3, 1, 3},
		{-3, -1, -3},
		{0, -1, math.Copysign(0, -1)},
	}
	for _, c := range cases {
		if got := Copysign(c.mag, c.sign); got != c.want {
			t.Errorf("Copysign(%v,%v) = %v, want %v", c.mag, c.sign, got, c.want)
		}
	}
}

func TestCopysignFloat32(t *testing.T) {
	if got := Copysign(float32(2.5), float32(-7)); got != -2.5 {
		t.Fatalf("Copysign float32 = %v, want -2.5", got)
	}
}

func TestSqrtFloat32MatchesMath(t *testing.T) {
	prop := func(raw float64) bool {
		x := float32(math.Abs(small(raw)))
		return Sqrt(x) == float32(math.Sqrt(float64(x)))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5.0, 0.0, 1.0) != 1.0 {
		t.Error("Clamp above")
	}
	if Clamp(-5.0, 0.0, 1.0) != 0.0 {
		t.Error("Clamp below")
	}
	if Clamp(0.5, 0.0, 1.0) != 0.5 {
		t.Error("Clamp inside")
	}
}

func TestMinMax(t *testing.T) {
	if Min(2.0, 3.0) != 2.0 || Min(3.0, 2.0) != 2.0 {
		t.Error("Min")
	}
	if Max(2.0, 3.0) != 3.0 || Max(3.0, 2.0) != 3.0 {
		t.Error("Max")
	}
}

func TestAbs(t *testing.T) {
	if Abs(-2.0) != 2.0 || Abs(2.0) != 2.0 || Abs(0.0) != 0.0 {
		t.Error("Abs")
	}
	if Abs(float32(-1.5)) != 1.5 {
		t.Error("Abs float32")
	}
}

func TestFloorRound(t *testing.T) {
	if Floor(1.9) != 1.0 || Floor(-0.1) != -1.0 {
		t.Error("Floor")
	}
	if Round(1.5) != 2.0 || Round(-1.5) != -2.0 || Round(1.4) != 1.0 {
		t.Error("Round")
	}
}

func TestWidenNarrowRoundTrip(t *testing.T) {
	a := V3[float32]{1.5, -2.25, 3.125} // exactly representable
	if got := FromV3f64[float32](V3[float64]{float64(a.X), float64(a.Y), float64(a.Z)}); got != a {
		t.Fatalf("round trip changed exactly-representable vector: %v", got)
	}
}

func BenchmarkDotFloat64(b *testing.B) {
	a := V3[float64]{1, 2, 3}
	c := V3[float64]{4, 5, 6}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += a.Dot(c)
	}
	_ = sink
}

func BenchmarkDotFloat32(b *testing.B) {
	a := V3[float32]{1, 2, 3}
	c := V3[float32]{4, 5, 6}
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += a.Dot(c)
	}
	_ = sink
}
