package md

import (
	"fmt"
	"testing"

	"repro/internal/vec"
)

// ljPairUnhoisted is the LJ pair body as it stood before the per-call
// constants moved into NewLJ: the ε/σ defaults, σ² and the cutoff
// shift re-derived on every pair. It is the oracle LJ.Pair is pinned
// against, the way virialN2 serves the virial.
func ljPairUnhoisted[T vec.Float](p Params[T], r2 T) (v, f T) {
	eps, sig := p.Epsilon1(), p.Sigma1()
	sr2 := sig * sig / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	v = 4 * eps * (sr12 - sr6)
	f = 24 * eps * (2*sr12 - sr6) / r2
	if p.Shifted {
		v -= ljShiftUnhoisted(p)
	}
	return v, f
}

func ljShiftUnhoisted[T vec.Float](p Params[T]) T {
	eps, sig := p.Epsilon1(), p.Sigma1()
	sr2 := sig * sig / (p.Cutoff * p.Cutoff)
	sr6 := sr2 * sr2 * sr2
	return 4 * eps * (sr6*sr6 - sr6)
}

// forcesUnhoisted is NeighborList.Forces's pair loop as it stood
// before the hoisted kernel: V3 gathers, MinImage, the unhoisted pair
// body, and acc[i] updated in memory on every pair. It scores nl's
// rows as they are, without refreshing the list.
func forcesUnhoisted[T vec.Float](nl *NeighborList[T], p Params[T], pos, acc Coords[T]) T {
	acc.Zero()
	rc2 := p.Cutoff * p.Cutoff
	var pe T
	for i := 0; i < pos.Len(); i++ {
		pi := pos.At(i)
		for _, j := range nl.Neighbors(i) {
			d := MinImage(pi.Sub(pos.At(int(j))), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			v, f := ljPairUnhoisted(p, r2)
			pe += v
			fd := d.Scale(f)
			acc.Add(i, fd)
			acc.Sub(int(j), fd)
		}
	}
	return pe
}

// checkCoordsBitsEqual pins every component of got against want, bit
// for bit.
func checkCoordsBitsEqual[T vec.Float](t *testing.T, label string, got, want Coords[T]) {
	t.Helper()
	for _, pl := range []struct {
		name      string
		got, want []T
	}{{"X", got.X, want.X}, {"Y", got.Y, want.Y}, {"Z", got.Z, want.Z}} {
		for i := range pl.want {
			if bits(pl.got[i]) != bits(pl.want[i]) {
				t.Fatalf("%s: acc.%s[%d] = %v, want %v", label, pl.name, i, pl.got[i], pl.want[i])
			}
		}
	}
}

// checkHoistedKernel runs NeighborList.Forces and the unhoisted oracle
// over the same list at precision T and pins PE and every acceleration
// bit for bit. It also pins LJ.Pair against the unhoisted body over the
// squared distances the list scores.
func checkHoistedKernel[T vec.Float](t *testing.T, label string, p Params[T], src []vec.V3[float64], grid bool) {
	t.Helper()
	pos := MakeCoords[T](len(src))
	for i, v := range src {
		pos.Set(i, vec.FromV3f64[T](v))
	}
	nl, err := NewNeighborList[T](0.4)
	if err != nil {
		t.Fatal(err)
	}
	acc := MakeCoords[T](pos.Len())
	pe := nl.Forces(p, pos, acc)
	if nl.gridOK != grid {
		t.Fatalf("%s: cell-grid build %v, want %v", label, nl.gridOK, grid)
	}
	want := MakeCoords[T](pos.Len())
	wantPE := forcesUnhoisted(nl, p, pos, want)
	checkBitsEqual(t, label+" PE", pe, wantPE)
	checkCoordsBitsEqual(t, label, acc, want)

	lj := NewLJ(p)
	for i := 0; i < pos.Len(); i += 17 {
		for _, j := range nl.Neighbors(i) {
			r2 := MinImage(pos.At(i).Sub(pos.At(int(j))), p.Box).Norm2()
			if r2 == 0 {
				continue
			}
			v, f := lj.Pair(r2)
			wv, wf := ljPairUnhoisted(p, r2)
			checkBitsEqual(t, label+" Pair v", v, wv)
			checkBitsEqual(t, label+" Pair f", f, wf)
		}
	}
}

// TestHoistedKernelMatchesUnhoistedBitwise pins the hoisted pair
// kernel against the code it replaced over every combination of the
// shifted and plain potential, default and custom ε/σ, both
// precisions, a cell-grid list and a row-scan list, and positions in
// and out of the box. The SoA goldens cover only the plain potential
// at default ε/σ in float64.
func TestHoistedKernelMatchesUnhoistedBitwise(t *testing.T) {
	type system struct {
		name string
		pos  []vec.V3[float64]
		box  float64
		grid bool
	}
	fccGrid, boxGrid := fccPositions(t, 864)   // 4 list-radius cells per edge
	fccSmall, boxSmall := fccPositions(t, 256) // too small for the cell grid
	var systems []system
	for _, s := range []system{
		{"grid", fccGrid, boxGrid, true},
		{"rowscan", fccSmall, boxSmall, false},
	} {
		systems = append(systems, s)
		// Every fifth atom moved to a periodic image one box over, on an
		// axis and in a direction that vary with the atom, as unwrapped
		// coordinates leave them.
		out := append([]vec.V3[float64](nil), s.pos...)
		for i := 0; i < len(out); i += 5 {
			shift := s.box
			if i%2 == 1 {
				shift = -s.box
			}
			switch i % 3 {
			case 0:
				out[i].X += shift
			case 1:
				out[i].Y += shift
			default:
				out[i].Z += shift
			}
		}
		systems = append(systems, system{s.name + "-outofbox", out, s.box, s.grid})
	}
	for _, s := range systems {
		for _, shifted := range []bool{false, true} {
			for _, lj := range []struct{ eps, sig float64 }{{0, 0}, {1.3, 0.9}} {
				label := fmt.Sprintf("%s/shifted=%v/eps=%v,sig=%v", s.name, shifted, lj.eps, lj.sig)
				t.Run(label+"/f64", func(t *testing.T) {
					p := Params[float64]{Box: s.box, Cutoff: 2.5, Dt: 0.004, Epsilon: lj.eps, Sigma: lj.sig, Shifted: shifted}
					checkHoistedKernel(t, label, p, s.pos, s.grid)
				})
				t.Run(label+"/f32", func(t *testing.T) {
					p := Params[float32]{Box: float32(s.box), Cutoff: 2.5, Dt: 0.004,
						Epsilon: float32(lj.eps), Sigma: float32(lj.sig), Shifted: shifted}
					checkHoistedKernel(t, label, p, s.pos, s.grid)
				})
			}
		}
	}
}
