package md

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

func TestXYZRoundTrip(t *testing.T) {
	s := makeSystem(t, 32, false)
	var buf bytes.Buffer
	w := NewXYZWriter(&buf, "Ar")
	if err := w.WriteFrame("frame 0", s.Pos); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if err := w.WriteFrame("frame 1", s.Pos); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Frames() != 2 {
		t.Fatalf("Frames = %d", w.Frames())
	}

	frames, err := NewXYZReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("read %d frames", len(frames))
	}
	if frames[0].Comment != "frame 0" || frames[1].Comment != "frame 1" {
		t.Fatalf("comments: %q, %q", frames[0].Comment, frames[1].Comment)
	}
	for i := 0; i < s.N(); i++ {
		if frames[1].Pos[i] != s.Pos.At(i) {
			t.Fatalf("frame 1 atom %d: %+v != %+v (round trip must be exact)", i, frames[1].Pos[i], s.Pos.At(i))
		}
		if frames[1].Symbols[i] != "Ar" {
			t.Fatalf("symbol %q", frames[1].Symbols[i])
		}
	}
}

func TestXYZEmptySymbolDefaults(t *testing.T) {
	var buf bytes.Buffer
	w := NewXYZWriter(&buf, "")
	if err := w.WriteFrame("c", CoordsFromV3([]vec.V3[float64]{{X: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "X 1") {
		t.Fatalf("default symbol missing: %q", buf.String())
	}
}

func TestXYZRejectsMultilineComment(t *testing.T) {
	w := NewXYZWriter(io.Discard, "Ar")
	if err := w.WriteFrame("bad\ncomment", Coords[float64]{}); err == nil {
		t.Fatal("multiline comment accepted")
	}
}

func TestXYZReaderEOF(t *testing.T) {
	r := NewXYZReader(strings.NewReader(""))
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestXYZReaderErrors(t *testing.T) {
	cases := []string{
		"not-a-number\ncomment\n",
		"-3\ncomment\n",
		"2\ncomment\nAr 1 2 3\n",         // truncated
		"1\ncomment\nAr 1 2\n",           // short line
		"1\ncomment\nAr one two three\n", // bad floats
		"1\n",                            // missing comment
	}
	for i, in := range cases {
		if _, err := NewXYZReader(strings.NewReader(in)).ReadFrame(); err == nil {
			t.Errorf("case %d parsed: %q", i, in)
		}
	}
}

func TestXYZZeroAtoms(t *testing.T) {
	var buf bytes.Buffer
	w := NewXYZWriter(&buf, "Ar")
	if err := w.WriteFrame("empty", Coords[float64]{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := NewXYZReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Pos) != 0 || f.Comment != "empty" {
		t.Fatalf("frame = %+v", f)
	}
}

// xyzValues returns the coordinates the XYZ writer's float form is
// pinned on: signed zeros, infinities, NaN, subnormals, the extreme
// exponents, values around the 'g' form's exponent switch, and random
// bit patterns.
func xyzValues() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1e-5, 1e-4, 1e16, 1e17, 1e21, 123456789012345678,
	}
	rng := xrand.New(17)
	for range 20000 {
		vs = append(vs, math.Float64frombits(rng.Uint64()), rng.Float64()*20)
	}
	return vs
}

// TestXYZMatchesFmtForm pins WriteFrame's coordinate text to the %.17g
// form it replaced, byte for byte, over xyzValues.
func TestXYZMatchesFmtForm(t *testing.T) {
	vs := xyzValues()
	pos := MakeCoords[float64](len(vs))
	for i, v := range vs {
		pos.Set(i, vec.V3[float64]{X: v, Y: -v, Z: vs[(i+1)%len(vs)]})
	}
	var got, want bytes.Buffer
	w := NewXYZWriter(&got, "Ar")
	if err := w.WriteFrame("step 7", pos); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "%d\n%s\n", pos.Len(), "step 7")
	for i := 0; i < pos.Len(); i++ {
		p := pos.At(i)
		fmt.Fprintf(&want, "%s %.17g %.17g %.17g\n", "Ar", p.X, p.Y, p.Z)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for k := range min(len(g), len(w)) {
			if g[k] != w[k] {
				t.Fatalf("line %d: %q, want %q", k, g[k], w[k])
			}
		}
		t.Fatalf("%d lines, want %d", len(g), len(w))
	}
}

// BenchmarkXYZWriteFrame writes one 4000-atom frame per op, the size
// of an md-rebuild frame; after the first frame it allocates nothing.
func BenchmarkXYZWriteFrame(b *testing.B) {
	pos := randomPositions(xrand.New(5), 4000, 16.8)
	w := NewXYZWriter(io.Discard, "Ar")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteFrame("step 10", pos); err != nil {
			b.Fatal(err)
		}
	}
}
