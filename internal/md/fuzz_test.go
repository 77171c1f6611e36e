package md

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
	"repro/internal/xrand"
)

// FuzzXYZReader must never panic on arbitrary input, and any frame it
// accepts must survive a write/read round trip.
func FuzzXYZReader(f *testing.F) {
	f.Add("1\ncomment\nAr 1 2 3\n")
	f.Add("0\nempty\n")
	f.Add("2\nc\nAr 1 2 3\nAr 4 5 6\n")
	f.Add("")
	f.Add("x\n")
	f.Add("1\n")
	f.Fuzz(func(t *testing.T, in string) {
		r := NewXYZReader(strings.NewReader(in))
		for {
			frame, err := r.ReadFrame()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			// Accepted frames must be internally consistent.
			if len(frame.Symbols) != len(frame.Pos) {
				t.Fatalf("frame with %d symbols, %d positions", len(frame.Symbols), len(frame.Pos))
			}
		}
	})
}

// FuzzReadCheckpoint feeds arbitrary byte streams to the checkpoint
// reader: it must never panic and never allocate beyond what the
// stream backs (hostile length fields), and any stream it accepts must
// survive a write/read round trip bit-exactly.
func FuzzReadCheckpoint(f *testing.F) {
	// Seed with a valid v2 file, a valid v1 file, and assorted garbage.
	st, err := lattice.Generate(lattice.Config{
		N: 8, Density: 0.8442, Temperature: 0.728, Kind: lattice.FCC, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	sys, err := NewSystem(st, Params[float64]{Box: st.Box, Cutoff: st.Box / 2 * 0.99, Dt: 0.004})
	if err != nil {
		f.Fatal(err)
	}
	var v2, v1 bytes.Buffer
	if err := WriteCheckpoint(&v2, sys); err != nil {
		f.Fatal(err)
	}
	if err := writeCheckpointV1(&v1, sys); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("PCDM"))
	f.Add([]byte{0x50, 0x43, 0x44, 0x4d, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, s); err != nil {
			t.Fatalf("accepted checkpoint failed to re-serialize: %v", err)
		}
		s2, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted checkpoint rejected: %v", err)
		}
		if s2.N() != s.N() || s2.Steps != s.Steps || s2.P != s.P {
			t.Fatal("round trip of accepted checkpoint diverged")
		}
	})
}

// FuzzNeighborListBuild feeds the cell-binned build pathological
// geometry — zero or non-finite boxes, atoms exactly on box and cell
// boundaries, coincident atoms, out-of-range stragglers, every atom in
// one cell, atoms one box out — and asserts it never panics or hangs,
// always produces well-formed rows (strictly ascending, in-bounds,
// j > i), and always matches the reference O(N²) build pair for pair:
// the two paths score identical MinImage distances, so any divergence
// is a binning coverage bug.
func FuzzNeighborListBuild(f *testing.F) {
	f.Add(9.0, 2.5, 0.4, uint64(1), uint8(32), uint8(0))
	f.Add(0.0, 2.5, 0.4, uint64(2), uint8(16), uint8(0))  // zero-size box
	f.Add(-3.0, 1.0, 0.3, uint64(3), uint8(16), uint8(0)) // negative box
	f.Add(math.Inf(1), 1.0, 0.3, uint64(4), uint8(8), uint8(0))
	f.Add(9.0, 2.5, 0.4, uint64(5), uint8(24), uint8(1))     // boundary atom
	f.Add(9.0, 2.5, 0.4, uint64(6), uint8(24), uint8(2))     // coincident atoms
	f.Add(9.0, 2.5, 0.4, uint64(7), uint8(24), uint8(4))     // out-of-range atom
	f.Add(1e-8, 1e-9, 1e-10, uint64(8), uint8(12), uint8(7)) // degenerate scale
	f.Add(8.8, 2.5, 0.4, uint64(9), uint8(62), uint8(0))     // exactly 3 cells per edge
	f.Add(40.0, 2.5, 0.4, uint64(10), uint8(40), uint8(0))   // sparse: most cells empty
	f.Add(12.0, 2.5, 0.4, uint64(11), uint8(40), uint8(8))   // every atom in one cell
	f.Add(12.0, 2.5, 0.4, uint64(12), uint8(40), uint8(2))   // coincident atoms (r2 == 0)
	f.Add(12.0, 2.5, 0.4, uint64(13), uint8(40), uint8(16))  // atoms one box outside
	f.Add(7.0, 2.5, 0.4, uint64(14), uint8(40), uint8(0))    // one-cell (no-grid) box
	f.Fuzz(func(t *testing.T, box, cutoff, skin float64, seed uint64, n, patho uint8) {
		if skin <= 0 || skin != skin {
			skin = 0.3
		}
		nn := int(n%64) + 2
		span := box
		if !(span > 0) || span > 1e9 {
			span = 1
		}
		rng := xrand.New(seed)
		pos := make([]vec.V3[float64], nn)
		for i := range pos {
			pos[i] = vec.V3[float64]{
				X: rng.Float64() * span,
				Y: rng.Float64() * span,
				Z: rng.Float64() * span,
			}
		}
		if patho&1 != 0 { // exactly on the box edge (folds to 0)
			pos[0] = vec.V3[float64]{X: box, Y: box, Z: box}
		}
		if patho&2 != 0 && nn >= 3 { // coincident pile
			pos[1], pos[2] = pos[0], pos[0]
		}
		if patho&4 != 0 { // outside [0, box)
			pos[nn-1] = vec.V3[float64]{X: -span / 3, Y: 2.5 * span, Z: span / 2}
		}
		if rl := cutoff + skin; patho&8 != 0 && rl > 0 && rl < span { // one cell's worth of space
			for i := range pos {
				pos[i] = pos[i].Scale(rl / 2 / span)
			}
		}
		if patho&16 != 0 { // every other atom one box out on one axis
			for i := 0; i < nn; i += 2 {
				pos[i].X += box * float64(i%4-1)
			}
		}
		p := Params[float64]{Box: box, Cutoff: cutoff, Dt: 1}

		ref, err := NewNeighborList[float64](skin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewNeighborList[float64](skin)
		if err != nil {
			t.Fatal(err)
		}
		posC := CoordsFromV3(pos)
		ref.BuildN2(p, posC)
		got.Build(p, posC)
		for i := 0; i < nn; i++ {
			w, g := ref.Neighbors(i), got.Neighbors(i)
			if len(w) != len(g) {
				t.Fatalf("row %d: %d neighbors, want %d (box %v cutoff %v skin %v patho %d)",
					i, len(g), len(w), box, cutoff, skin, patho)
			}
			prev := int32(i)
			for k := range w {
				if g[k] != w[k] {
					t.Fatalf("row %d entry %d: %d, want %d (box %v cutoff %v skin %v patho %d)",
						i, k, g[k], w[k], box, cutoff, skin, patho)
				}
				if g[k] <= prev || int(g[k]) >= nn {
					t.Fatalf("row %d malformed: %d after %d (n=%d)", i, g[k], prev, nn)
				}
				prev = g[k]
			}
		}
	})
}

// FuzzObservableRows pins the observables that moved onto neighbor-list
// rows against their all-pairs oracles on fuzzed positions: random
// atoms in a grid or fallback box, a fuzzed atom anywhere (in or out
// of the box, huge, NaN, ±Inf) with a partner next to it, and every
// third seed a share of atoms shifted whole boxes away. Finite
// positions must give the oracle's bits; an input the oracle scores as
// NaN must be NaN on the row path too. The RDF drops a NaN distance on
// both paths, so its bins must match for every input.
func FuzzObservableRows(f *testing.F) {
	f.Add(uint64(1), uint8(60), 9.0, 0.5, 0.5, 0.5)
	f.Add(uint64(2), uint8(60), 9.0, -3.0, 12.5, 4.0) // outside [0, box)
	f.Add(uint64(3), uint8(60), 6.0, 0.0, 0.0, 0.0)   // fallback box, atom at the origin
	f.Add(uint64(4), uint8(40), 9.0, math.Nextafter(9, 0), 0.0, 0.0)
	f.Add(uint64(5), uint8(40), 9.0, math.NaN(), 1.0, 1.0)
	f.Add(uint64(6), uint8(40), 9.0, math.Inf(1), 1.0, 1.0)
	f.Add(uint64(7), uint8(40), 9.0, 1e300, -1e300, 5.0)
	f.Add(uint64(9), uint8(80), 12.0, 3.0, 3.0, 3.0) // shifted atoms
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, box, x, y, z float64) {
		if !(box >= 5.5 && box <= 40) {
			box = 9
		}
		nn := int(n%96) + 2
		rng := xrand.New(seed)
		pos := randomPositions(rng, nn, box)
		pos.Set(0, vec.V3[float64]{X: x, Y: y, Z: z})
		pos.Set(1, vec.V3[float64]{X: x + 0.9, Y: y, Z: z})
		if seed%3 == 0 {
			for i := 2; i < nn; i += 3 {
				k := float64(rng.Intn(5) - 2)
				pos.Set(i, pos.At(i).Add(vec.V3[float64]{X: k * box, Y: -k * box, Z: box}))
			}
		}
		p := Params[float64]{Box: box, Cutoff: 2.5, Dt: 0.004}

		want, got := virialN2(p, pos), VirialOver(nil, p, pos)
		if pos.finite() {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("virial %v (bits %x), oracle %v (bits %x)", got, math.Float64bits(got), want, math.Float64bits(want))
			}
		} else if math.IsNaN(want) && !math.IsNaN(got) {
			t.Fatalf("virial %v on an input the oracle scores NaN", got)
		}

		for _, rMax := range []float64{p.Cutoff, 0.99 * box / 2} {
			rows, err := NewRDF(box, rMax, 25)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewRDF(box, rMax, 25)
			if err != nil {
				t.Fatal(err)
			}
			if err := rows.Accumulate(pos); err != nil {
				t.Fatal(err)
			}
			accumulateN2(oracle, pos)
			for b := range oracle.bins {
				if rows.bins[b] != oracle.bins[b] {
					t.Fatalf("rMax %v bin %d: %d, oracle %d", rMax, b, rows.bins[b], oracle.bins[b])
				}
			}
		}
	})
}

// FuzzMinImageAgreement checks the three minimum-image formulations on
// arbitrary in-range displacements.
func FuzzMinImageAgreement(f *testing.F) {
	f.Add(0.5, -0.5, 0.1)
	f.Add(4.9, -4.9, 0.0)
	f.Fuzz(func(t *testing.T, dx, dy, dz float64) {
		checkMinImageAgreement(t, dx, dy, dz, 10.0)
	})
}

// FuzzMinImageAgreementBoxes extends the agreement property to fuzzed
// box sizes: the three formulations must agree for any displacement in
// (-box, box) whatever the box, not just the standard-workload box the
// unit tests and FuzzMinImageAgreement use.
func FuzzMinImageAgreementBoxes(f *testing.F) {
	f.Add(0.5, -0.5, 0.1, 10.0)
	f.Add(4.9, -4.9, 0.0, 5.0)
	f.Add(0.001, 0.002, -0.003, 0.01)
	f.Add(100.0, -250.0, 0.0, 300.0)
	f.Fuzz(func(t *testing.T, dx, dy, dz, box float64) {
		if box != box || box <= 0 || box > 1e12 {
			box = 7.3
		}
		checkMinImageAgreement(t, dx, dy, dz, box)
	})
}

// checkMinImageAgreement folds the raw fuzz inputs into (-box, box) and
// asserts MinImage, MinImageCopysign, and MinImage27 agree on the
// result: branch and copysign bitwise, and both matching the exhaustive
// 27-cell oracle's norm to rounding.
func checkMinImageAgreement(t *testing.T, dx, dy, dz, box float64) {
	t.Helper()
	clamp := func(x float64) float64 {
		if x != x || x > 1e12 || x < -1e12 { // NaN or huge
			return 0.25 * box
		}
		// math.Mod folds into (-box, box) in one step; the loop form the
		// original test used is O(|x|/box) and melts down for tiny boxes.
		return math.Mod(x, box)
	}
	d := vec.V3[float64]{X: clamp(dx), Y: clamp(dy), Z: clamp(dz)}
	a := MinImage(d, box)
	b := MinImageCopysign(d, box)
	c := MinImage27(d, box)
	if a != b {
		t.Fatalf("branch %v vs copysign %v for %v (box %v)", a, b, d, box)
	}
	tol := 1e-9 * box * box
	if diff := a.Norm2() - c.Norm2(); diff > tol || diff < -tol {
		t.Fatalf("branch norm %v vs 27-cell norm %v for %v (box %v)", a.Norm2(), c.Norm2(), d, box)
	}
}

// FuzzSoAState drives the SoA state machinery through randomized
// shapes and hostile inputs: arena reuse across Resize must preserve
// the backing store and never bleed one plane into another,
// gather/scatter between the SoA planes and AoS vectors must be
// bit-exact, a v3 checkpoint must survive encode -> decode -> encode
// with byte-identical output, and corrupted or truncated legacy
// v1/v2 streams must be rejected with an error, never a panic.
func FuzzSoAState(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint16(3), uint16(40))
	f.Add(uint64(2), uint8(1), uint16(0), uint16(0))
	f.Add(uint64(3), uint8(97), uint16(999), uint16(7))
	f.Add(uint64(4), uint8(255), uint16(12), uint16(76)) // atom-count byte
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, growRaw, hostileRaw uint16) {
		rng := xrand.New(seed)
		n := int(nRaw)%100 + 1

		// Gather/scatter round trip: AoS -> SoA -> AoS is bit-exact.
		src := make([]vec.V3[float64], n)
		for i := range src {
			src[i] = vec.V3[float64]{
				X: (rng.Float64() - 0.5) * 20,
				Y: (rng.Float64() - 0.5) * 20,
				Z: (rng.Float64() - 0.5) * 20,
			}
		}
		c := CoordsFromV3(src)
		back := c.V3s()
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("gather/scatter round trip changed element %d: %+v -> %+v", i, src[i], back[i])
			}
		}

		// Plane isolation: the capacity-clamped planes make append
		// reallocate instead of growing into the neighboring plane.
		if n > 1 {
			grown := append(c.X, 12345)
			grown[0] = -12345 // must not alias c.X after the realloc
			if c.Y[0] != src[0].Y {
				t.Fatalf("appending to X bled into Y: %v", c.Y[0])
			}
			if c.X[0] == -12345 {
				t.Fatal("append within capacity aliased the X plane")
			}
		}

		// Arena reuse: shrinking and regrowing within the original
		// capacity keeps the same backing arena and the surviving
		// prefix; growing past it reallocates and Len tracks.
		arena0 := &c.X[0]
		small := int(growRaw)%n + 1
		c.Resize(small)
		if c.Len() != small {
			t.Fatalf("Resize(%d): Len = %d", small, c.Len())
		}
		for i := 0; i < small; i++ {
			if c.At(i) != src[i] {
				t.Fatalf("Resize shrink lost element %d", i)
			}
		}
		c.Resize(n)
		if &c.X[0] != arena0 {
			t.Fatal("Resize within capacity reallocated the arena")
		}
		c.Resize(n + int(growRaw)%64 + 1)
		if c.Len() != n+int(growRaw)%64+1 {
			t.Fatalf("grow Resize: Len = %d", c.Len())
		}
		c.Set(c.Len()-1, vec.V3[float64]{X: 1, Y: 2, Z: 3})
		if c.At(c.Len()-1) != (vec.V3[float64]{X: 1, Y: 2, Z: 3}) {
			t.Fatal("grown arena does not hold writes")
		}

		// Checkpoint v3 byte stability: encode -> decode -> encode is
		// byte-identical (same header, same plane order, same CRC).
		sys := &System[float64]{P: Params[float64]{Box: 10, Cutoff: 2.5, Dt: 0.004}}
		sys.newSystemState(n)
		sys.Pos.Scatter(src)
		for i := 0; i < n; i++ {
			sys.Vel.Set(i, vec.V3[float64]{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
			sys.Acc.Set(i, vec.V3[float64]{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		}
		sys.PE, sys.KE = rng.Float64(), rng.Float64()
		sys.Steps = int(seed % 1000)
		var enc1 bytes.Buffer
		if err := WriteCheckpoint(&enc1, sys); err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := ReadCheckpoint(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decode of fresh v3 checkpoint: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteCheckpoint(&enc2, dec); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("v3 checkpoint encode -> decode -> encode is not byte-stable")
		}

		// Hostile legacy streams: a bit-flipped v2 fails its CRC (or an
		// earlier header check) and any truncated v1/v2 is refused —
		// with an error in every case, never a panic or a silent accept.
		var v1, v2 bytes.Buffer
		if err := writeCheckpointV1(&v1, sys); err != nil {
			t.Fatal(err)
		}
		if err := writeCheckpointV2(&v2, sys); err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), v2.Bytes()...)
		flipped[int(hostileRaw)%len(flipped)] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(flipped)); err == nil {
			t.Fatal("bit-flipped v2 checkpoint accepted")
		}
		for _, legacy := range [][]byte{v1.Bytes(), v2.Bytes()} {
			cut := int(hostileRaw) % len(legacy) // strictly shorter than the stream
			if _, err := ReadCheckpoint(bytes.NewReader(legacy[:cut])); err == nil {
				t.Fatal("truncated legacy checkpoint accepted")
			}
		}
	})
}
