package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 1000", same)
	}
}

func TestSeedResets(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after re-seed, value %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSeedClearsNormalCache(t *testing.T) {
	s := New(3)
	s.NormFloat64() // populates the spare
	s.Seed(3)
	a := s.NormFloat64()
	b := New(3).NormFloat64()
	if a != b {
		t.Fatalf("Seed did not clear Box-Muller cache: %v != %v", a, b)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	s := New(99)
	for i := 0; i < 100000; i++ {
		v := s.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	prop := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d has %d draws, want ~%v", i, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(21)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestMul64MatchesBits(t *testing.T) {
	prop := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		whi, wlo := bits.Mul64(a, b)
		return hi == whi && lo == wlo
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBitBalance(t *testing.T) {
	// Each output bit should be set ~half the time.
	s := New(1234)
	const n = 50000
	var ones [64]int
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<b) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		frac := float64(c) / n
		if frac < 0.48 || frac > 0.52 {
			t.Fatalf("bit %d set fraction %v, want ~0.5", b, frac)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}
