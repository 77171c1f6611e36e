package parallel

import (
	"fmt"
	"testing"

	"repro/internal/md"
	"repro/internal/vec"
)

// The engine shards md's kernels instead of carrying its own pair
// loops. The oracles below are the loops it used to carry, kept here
// so the sharded kernels stay pinned to them bit for bit: the direct
// kernel's per-shard gather, and the pair-chunk loop with V3 gathers,
// MinImage and a per-pair scatter into a private buffer, followed by
// the engine's reduction tree.

// oracleDirect is the direct kernel's former shard loop: per-shard
// partial energies summed in worker order, then halved.
func oracleDirect[T vec.Float](workers int, p md.Params[T], pos, acc md.Coords[T]) T {
	n := pos.Len()
	lj := md.NewLJ(p)
	rc2 := p.Cutoff * p.Cutoff
	var total T
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		var pe T
		for i := lo; i < hi; i++ {
			pi := pos.At(i)
			var ai vec.V3[T]
			var pei T
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				d := md.MinImage(pi.Sub(pos.At(j)), p.Box)
				r2 := d.Norm2()
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				v, f := lj.Pair(r2)
				pei += v
				ai = ai.Add(d.Scale(f))
			}
			acc.Set(i, ai)
			pe += pei
		}
		total += pe
	}
	return total / 2
}

// oraclePairlist is the pairlist kernel's former pair-chunk loop over
// nl's rows, one private buffer per chunk, folded by the same
// pairwise tree the engine uses and copied into acc.
func oraclePairlist[T vec.Float](workers int, nl *md.NeighborList[T], p md.Params[T], pos, acc md.Coords[T]) T {
	n := pos.Len()
	total := nl.PairCount()
	lj := md.NewLJ(p)
	rc2 := p.Cutoff * p.Cutoff
	bufs := make([]md.Coords[T], workers)
	pes := make([]T, workers)
	for w := 0; w < workers; w++ {
		buf := md.MakeCoords[T](n)
		lo, hi := w*total/workers, (w+1)*total/workers
		var pe T
		seen := 0
		for i := 0; i < n && seen < hi; i++ {
			js := nl.Neighbors(i)
			if seen+len(js) <= lo {
				seen += len(js)
				continue
			}
			from, to := 0, len(js)
			if lo > seen {
				from = lo - seen
			}
			if hi < seen+len(js) {
				to = hi - seen
			}
			seen += len(js)
			pi := pos.At(i)
			for _, j := range js[from:to] {
				d := md.MinImage(pi.Sub(pos.At(int(j))), p.Box)
				r2 := d.Norm2()
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				v, f := lj.Pair(r2)
				pe += v
				fd := d.Scale(f)
				buf.Add(i, fd)
				buf.Sub(int(j), fd)
			}
		}
		bufs[w], pes[w] = buf, pe
	}
	for stride := 1; stride < workers; stride *= 2 {
		for w := 0; w+stride < workers; w += 2 * stride {
			dst, src := bufs[w], bufs[w+stride]
			for i := 0; i < n; i++ {
				dst.X[i] += src.X[i]
				dst.Y[i] += src.Y[i]
				dst.Z[i] += src.Z[i]
			}
		}
	}
	copy(acc.X, bufs[0].X)
	copy(acc.Y, bufs[0].Y)
	copy(acc.Z, bufs[0].Z)
	var pe T
	for _, v := range pes {
		pe += v
	}
	return pe
}

// diffPositions returns the 500-atom test fluid at precision T, with
// every fifth atom moved one box over (cycling the axis and the sign)
// when outOfBox is set.
func diffPositions[T vec.Float](t *testing.T, outOfBox bool) (md.Params[T], md.Coords[T]) {
	t.Helper()
	st, p64 := makeState(t, 500)
	pos := md.MakeCoords[T](len(st.Pos))
	for i := range st.Pos {
		pos.Set(i, vec.FromV3f64[T](st.Pos[i]))
	}
	p := md.Params[T]{Box: T(p64.Box), Cutoff: T(p64.Cutoff), Dt: T(p64.Dt)}
	if outOfBox {
		for i := 0; i < pos.Len(); i += 5 {
			shift := p.Box
			if (i/5)%2 == 1 {
				shift = -shift
			}
			switch (i / 5) % 3 {
			case 0:
				pos.X[i] += shift
			case 1:
				pos.Y[i] += shift
			default:
				pos.Z[i] += shift
			}
		}
	}
	return p, pos
}

// sameBits fails unless the engine's PE and every acceleration
// component equal the oracle's exactly (== on floats: the test fluid
// has no NaNs, and a ±0 mismatch is not a bit-level concern here).
func sameBits[T vec.Float](t *testing.T, label string, pe, wantPE T, acc, want md.Coords[T]) {
	t.Helper()
	if pe != wantPE {
		t.Fatalf("%s: PE %v, oracle %v", label, pe, wantPE)
	}
	for i := 0; i < want.Len(); i++ {
		if acc.X[i] != want.X[i] || acc.Y[i] != want.Y[i] || acc.Z[i] != want.Z[i] {
			t.Fatalf("%s: acc[%d] = %+v, oracle %+v", label, i, acc.At(i), want.At(i))
		}
	}
}

func testKernelsMatchOracles[T vec.Float](t *testing.T, prec string) {
	for _, outOfBox := range []bool{false, true} {
		p, pos := diffPositions[T](t, outOfBox)
		n := pos.Len()
		for _, shifted := range []bool{false, true} {
			p.Shifted = shifted
			nl, err := md.NewNeighborList[T](0.4)
			if err != nil {
				t.Fatal(err)
			}
			nl.Build(p, pos)
			for _, w := range []int{1, 2, 3, 4, 8} {
				label := fmt.Sprintf("%s shifted=%v outOfBox=%v w=%d", prec, shifted, outOfBox, w)
				e := New[T](w)

				want := md.MakeCoords[T](n)
				acc := md.MakeCoords[T](n)
				wantPE := oracleDirect(w, p, pos, want)
				pe, err := e.ForcesDirect(p, pos, acc)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, label+" direct", pe, wantPE, acc, want)

				wantPE = oraclePairlist(w, nl, p, pos, want)
				pe, err = e.ForcesPairlist(nl, p, pos, acc)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, label+" pairlist", pe, wantPE, acc, want)
				e.Close()
			}
		}
	}
}

// TestShardedKernelsMatchFormerLoopsBitwise pins ForcesDirect and
// ForcesPairlist to the loops they replaced, bit for bit, over both
// precisions, both potentials, uneven and power-of-two worker counts,
// and atoms wrapped or left one box outside.
func TestShardedKernelsMatchFormerLoopsBitwise(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testKernelsMatchOracles[float64](t, "f64") })
	t.Run("f32", func(t *testing.T) { testKernelsMatchOracles[float32](t, "f32") })
}
