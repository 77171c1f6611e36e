package mdrun

import (
	"math"
	"testing"

	"repro/internal/md"
)

// obsConfig is a Pairlist run whose RDF samples land on segment ends
// (SampleEvery = obsSegment), so a reference RDF fed the same positions
// between segments sees exactly the runner's samples.
func obsConfig() Config {
	cfg := baseConfig()
	cfg.Atoms = 864 // box ≈ 10.1: the list build takes the cell grid
	cfg.Method = Pairlist
	cfg.PairlistSkin = 0.3
	cfg.Thermostat = Berendsen
	cfg.SampleRDF = true
	cfg.SampleEvery = obsSegment
	return cfg
}

const (
	obsSegment  = 10
	obsSegments = 4
)

func checkSameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v, want %v bit for bit", what, got, want)
	}
}

// checkObservablesMatchInternalList runs r in segments that each end
// on the next sample step (a multiple of SampleEvery on System.Steps)
// and pins every segment's Summary.Pressure and Summary.RDF, which read
// the runner's live force list, against md.Pressure and an RDF
// accumulated with md's own throwaway list on the same positions.
func checkObservablesMatchInternalList(t *testing.T, r *Runner) {
	t.Helper()
	sys := r.System()
	ref, err := md.NewRDF(sys.P.Box, sys.P.Cutoff, rdfBins)
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < obsSegments; seg++ {
		sum, err := r.Run(obsSegment - sys.Steps%obsSegment)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Accumulate(sys.Pos); err != nil {
			t.Fatal(err)
		}
		checkSameBits(t, "Summary.Pressure", sum.Pressure, md.Pressure(sys.P, sys.Pos, sys.Temperature()))
		_, want := ref.Result()
		if len(sum.RDF) != len(want) {
			t.Fatalf("segment %d: %d RDF bins, want %d", seg, len(sum.RDF), len(want))
		}
		for b := range want {
			checkSameBits(t, "Summary.RDF", sum.RDF[b], want[b])
		}
	}
}

func TestPairlistObservablesMatchInternalList(t *testing.T) {
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"sharded", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := obsConfig()
			cfg.Workers = tc.workers
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			checkObservablesMatchInternalList(t, r)
		})
	}
}

// TestPairlistObservablesAfterNewFromSystem covers the stale-list
// path: a runner made by NewFromSystem has never built its list, so a
// 0-step run must build it before scoring the pressure, and the
// segments after it must still match. The resume lands at step 7, so
// the first segment runs 3 steps to the step-10 sample.
func TestPairlistObservablesAfterNewFromSystem(t *testing.T) {
	cfg := obsConfig()
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Run(7); err != nil {
		t.Fatal(err)
	}
	sys := src.System().Clone()
	r, err := NewFromSystem(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sum, err := r.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	checkSameBits(t, "0-step Summary.Pressure", sum.Pressure, md.Pressure(sys.P, sys.Pos, sys.Temperature()))
	checkObservablesMatchInternalList(t, r)
}

// TestPairlistTrajectoryMatchesDirect pins that handing the force list
// to the observables cannot move the run: a Pairlist runner ends on
// the Direct runner's positions, energies, pressure and RDF bit for bit.
func TestPairlistTrajectoryMatchesDirect(t *testing.T) {
	pl := obsConfig()
	direct := pl
	direct.Method = Direct
	var sums [2]*Summary
	var systems [2]*md.System[float64]
	for k, cfg := range []Config{pl, direct} {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sums[k], err = r.Run(obsSegment * obsSegments); err != nil {
			t.Fatal(err)
		}
		systems[k] = r.System()
	}
	for i := 0; i < systems[0].N(); i++ {
		if systems[0].Pos.At(i) != systems[1].Pos.At(i) {
			t.Fatalf("atom %d: pairlist %+v, direct %+v", i, systems[0].Pos.At(i), systems[1].Pos.At(i))
		}
	}
	checkSameBits(t, "FinalEnergy", sums[0].FinalEnergy, sums[1].FinalEnergy)
	checkSameBits(t, "Pressure", sums[0].Pressure, sums[1].Pressure)
	for b := range sums[1].RDF {
		checkSameBits(t, "RDF", sums[0].RDF[b], sums[1].RDF[b])
	}
}
