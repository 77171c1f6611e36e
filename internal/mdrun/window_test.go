package mdrun

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/md"
)

// summaryText renders every Summary field; %v prints each float in its
// shortest round-trip form, so equal text is equal bits.
func summaryText(s *Summary) string { return fmt.Sprintf("%+v", *s) }

// checkSameState fails unless a and b hold the same step count,
// positions, velocities, accelerations, PE and KE, bit for bit.
func checkSameState(t *testing.T, a, b *md.System[float64]) {
	t.Helper()
	if a.Steps != b.Steps {
		t.Fatalf("steps %d vs %d", a.Steps, b.Steps)
	}
	for i := 0; i < a.N(); i++ {
		if a.Pos.At(i) != b.Pos.At(i) || a.Vel.At(i) != b.Vel.At(i) || a.Acc.At(i) != b.Acc.At(i) {
			t.Fatalf("state diverged at atom %d", i)
		}
	}
	if a.PE != b.PE || a.KE != b.KE {
		t.Fatalf("energies diverged: PE %v vs %v, KE %v vs %v", a.PE, b.PE, a.KE, b.KE)
	}
}

// TestSegmentedRunMatchesOneCall pins the one clock and the one window:
// a runner called in segments that straddle the sample, frame and kick
// strides ends on the one-call run's state, Summary (every field) and
// trajectory bytes, so its frames land on the same steps.
func TestSegmentedRunMatchesOneCall(t *testing.T) {
	segments := [][]int{
		{10, 10, 10, 10, 10, 10},
		{3, 17, 1, 0, 29, 10},
	}
	for _, every := range []int{7, 20} {
		for k, segs := range segments {
			t.Run(fmt.Sprintf("traj%d/segs%d", every, k), func(t *testing.T) {
				cfg := baseConfig()
				cfg.Method = Pairlist
				cfg.Thermostat = Rescale
				cfg.SampleRDF = true
				cfg.TrajectoryEvery = every

				var oneXYZ, segXYZ bytes.Buffer
				cfg.Trajectory = &oneXYZ
				one, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := one.Run(60)
				if err != nil {
					t.Fatal(err)
				}

				cfg.Trajectory = &segXYZ
				seg, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got *Summary
				for _, n := range segs {
					if got, err = seg.Run(n); err != nil {
						t.Fatal(err)
					}
				}

				checkSameState(t, one.System(), seg.System())
				if g, w := summaryText(got), summaryText(want); g != w {
					t.Fatalf("segmented Summary\n%s\nwant the one-call run's\n%s", g, w)
				}
				if want.FramesWritten != 60/every {
					t.Fatalf("one call wrote %d frames, want %d", want.FramesWritten, 60/every)
				}
				if !bytes.Equal(segXYZ.Bytes(), oneXYZ.Bytes()) {
					t.Fatal("segmented trajectory differs from the one-call run's")
				}
			})
		}
	}
}
