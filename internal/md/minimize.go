package md

import "fmt"

// Energy minimization: production frameworks relax a configuration
// before dynamics so that overlapping atoms don't blow up the first
// integration steps. Steepest descent with adaptive step size is the
// standard robust choice.

// MinimizeResult reports a minimization.
type MinimizeResult struct {
	Steps      int     // descent steps actually taken
	InitialPE  float64 // potential energy before
	FinalPE    float64 // potential energy after
	MaxForce   float64 // largest force component magnitude at the end
	Converged  bool    // MaxForce fell below the tolerance
	Rejections int     // steps whose trial move raised the energy
}

// Minimize relaxes the system's positions by steepest descent: move
// along the forces with an adaptive step, growing it after accepted
// moves and shrinking it after rejected ones. Velocities are untouched.
// It stops after maxSteps or when the largest force component drops
// below fTol.
func Minimize(s *System[float64], maxSteps int, fTol float64) (*MinimizeResult, error) {
	if maxSteps < 0 {
		return nil, fmt.Errorf("md: maxSteps must be non-negative, got %d", maxSteps)
	}
	if fTol <= 0 {
		return nil, fmt.Errorf("md: force tolerance must be positive, got %v", fTol)
	}
	res := &MinimizeResult{InitialPE: ComputeForces(s.P, s.Pos, s.Acc)}
	pe := res.InitialPE
	step := 0.01
	trial := MakeCoords[float64](s.N())
	trialAcc := MakeCoords[float64](s.N())
	for iter := 0; iter < maxSteps; iter++ {
		maxF := maxForceComponent(s.Acc)
		if maxF < fTol {
			res.Converged = true
			break
		}
		// Trial move: displace along the (unit-capped) force direction.
		scale := step / maxF
		for i := 0; i < trial.Len(); i++ {
			trial.Set(i, Wrap(s.Pos.At(i).MulAdd(scale, s.Acc.At(i)), s.P.Box))
		}
		trialPE := ComputeForces(s.P, trial, trialAcc)
		if trialPE < pe {
			s.Pos.CopyFrom(trial)
			s.Acc.CopyFrom(trialAcc)
			pe = trialPE
			step *= 1.2
			if step > 0.2 {
				step = 0.2
			}
		} else {
			step /= 2
			res.Rejections++
			if step < 1e-12 {
				break // stuck at numerical resolution
			}
		}
		res.Steps++
	}
	if !res.Converged && maxForceComponent(s.Acc) < fTol {
		res.Converged = true
	}
	s.PE = pe
	res.FinalPE = pe
	res.MaxForce = maxForceComponent(s.Acc)
	return res, nil
}

// maxForceComponent returns the largest |component| over all forces.
func maxForceComponent(acc Coords[float64]) float64 {
	var m float64
	for i := 0; i < acc.Len(); i++ {
		a := acc.At(i)
		for _, c := range [3]float64{a.X, a.Y, a.Z} {
			if c < 0 {
				c = -c
			}
			if c > m {
				m = c
			}
		}
	}
	return m
}

// DiffusionCoefficient estimates D from the Einstein relation
// MSD = 6 D t for three-dimensional diffusion.
func DiffusionCoefficient(msd, elapsedTime float64) (float64, error) {
	if elapsedTime <= 0 {
		return 0, fmt.Errorf("md: elapsed time must be positive, got %v", elapsedTime)
	}
	if msd < 0 {
		return 0, fmt.Errorf("md: MSD must be non-negative, got %v", msd)
	}
	return msd / (6 * elapsedTime), nil
}
