package gpu

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/md"
	"repro/internal/sim"
	"repro/internal/vec"
)

// Config parameterizes the GPU model. The defaults approximate the
// NVIDIA GeForce 7900GTX-class part the paper measures: 24 pixel
// pipelines at 650 MHz, fed by PCIe.
type Config struct {
	Pipelines int     // parallel pixel pipelines
	CoreHz    float64 // shader clock

	FetchCycles float64 // cycles per texture fetch per pipeline
	ALUCycles   float64 // cycles per float4 ALU instruction

	PCIeBytesPerSec float64 // effective host<->device bandwidth
	PCIeLatencySec  float64 // per-transfer latency
	DispatchSec     float64 // per-pass driver/setup overhead

	// StartupSec is the one-time cost (context creation, JIT-compiling
	// the shader with the constants baked in). The paper excludes it
	// from Figure 7 because it is amortized across time steps;
	// IncludeStartup adds it to the reported total for what-if runs.
	StartupSec     float64
	IncludeStartup bool

	// PEViaReduction sums the per-atom potential energies with the
	// multi-pass GPU reduction the paper considers and rejects, instead
	// of riding them home in the float4 w component. Exists for the
	// ablation that quantifies the paper's "significant overheads".
	PEViaReduction bool
}

// DefaultConfig returns the calibrated 7900GTX-class model.
func DefaultConfig() Config {
	return Config{
		Pipelines:       24,
		CoreHz:          650e6,
		FetchCycles:     10, // unfiltered float4 texture reads are the slow path
		ALUCycles:       1,
		PCIeBytesPerSec: 1.5e9,
		PCIeLatencySec:  30e-6,
		DispatchSec:     60e-6,
		StartupSec:      0.3,
	}
}

// Device is the modeled graphics card.
type Device struct {
	cfg Config
}

// New validates cfg and returns the device.
func New(cfg Config) (*Device, error) {
	if cfg.Pipelines <= 0 {
		return nil, fmt.Errorf("gpu: pipelines must be positive, got %d", cfg.Pipelines)
	}
	if cfg.CoreHz <= 0 || cfg.PCIeBytesPerSec <= 0 {
		return nil, fmt.Errorf("gpu: clock and PCIe bandwidth must be positive")
	}
	return &Device{cfg: cfg}, nil
}

// Name implements device.Device.
func (d *Device) Name() string { return "gpu" }

// mdShader builds the fragment program of section 5.2: one invocation
// per atom, gathering all positions, writing the float4
// (ax, ay, az, pe_i). Constants (box, cutoff, LJ coefficients, N) are
// baked in, as with the paper's JIT-compiled Cg source. The kernel is
// branch-free: 2006 fragment processors pay for both sides of data-
// dependent control flow, so the cutoff is applied with an arithmetic
// select mask — which also makes the per-pair cost uniform.
func mdShader(n int, box, cutoff float32) Shader {
	half := box / 2
	rc2 := cutoff * cutoff
	return ShaderFunc(func(s *Sampler, i int) Float4 {
		pi := s.Fetch("pos", i)
		var ax, ay, az, pe float32
		for j := 0; j < n; j++ {
			pj := s.Fetch("pos", j)
			dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
			// Branch-free minimum image: d -= box * sel(|d| > box/2, sign(d)).
			dx -= box * selSign(dx, half)
			dy -= box * selSign(dy, half)
			dz -= box * selSign(dz, half)
			r2 := dx*dx + dy*dy + dz*dz
			// mask = 1 inside the cutoff, excluding self (r2 == 0).
			var mask float32
			if r2 < rc2 && r2 > 0 {
				mask = 1
			}
			// Guard the reciprocal so masked-out lanes stay finite
			// (inf * 0 would poison the accumulation with NaN).
			rsafe := r2
			if mask == 0 {
				rsafe = 1
			}
			sr2 := 1 / rsafe
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			pe += mask * 4 * (sr12 - sr6)
			f := mask * 24 * (2*sr12 - sr6) * sr2
			ax += f * dx
			ay += f * dy
			az += f * dz
			// Instruction budget per pair: 1 sub (float4), 3 mad-chains
			// for the minimum image (abs/compare/select/mad per axis
			// vectorized as ~2 ops each -> 6), 1 dp3, 1 compare+select
			// mask, 1 guarded rcp (2), 3 muls for sr6/sr12, 2 mads for
			// pe, 2 for f, 1 mad for the acceleration -> 16 ALU ops.
			s.ALU(16)
		}
		return Float4{ax, ay, az, pe}
	})
}

// selSign returns sign(d) when |d| > half, else 0 — the arithmetic
// select the shader uses for the minimum image.
func selSign(d, half float32) float32 {
	switch {
	case d > half:
		return 1
	case d < -half:
		return -1
	default:
		return 0
	}
}

// Run implements device.Device: the acceleration computation runs on
// the GPU each step (positions uploaded, accelerations + per-atom PE
// read back), the integration and the PE reduction stay on the CPU.
func (d *Device) Run(w device.Workload) (*device.Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	//mdlint:ignore precision device boundary: the single-precision port narrows the float64 workload once at entry
	p := md.Params[float32]{Box: float32(w.State.Box), Cutoff: float32(w.Cutoff), Dt: float32(w.Dt)}
	sys, err := md.NewSystem(w.State, p)
	if err != nil {
		return nil, err
	}
	n := sys.N()

	shader := mdShader(n, float32(w.State.Box), float32(w.Cutoff)) //mdlint:ignore precision device boundary: shader constants are single precision by design
	posTex := NewTexture("pos", packPositions(sys.Pos))

	bd := sim.NewBreakdown()
	var ledger sim.Ledger
	bytesPerArray := n * 16 // float4 per atom

	forces := func() float32 {
		// Upload this step's positions.
		if err := posTex.Update(packPositions(sys.Pos)); err != nil {
			panic(err) // sizes are fixed for the run
		}
		bd.Add("pcie", d.transferSec(bytesPerArray))

		pass, err := NewPass(shader, n, posTex)
		if err != nil {
			panic(err)
		}
		out, fetches, alu := pass.run()
		ledger.Add(sim.OpLoad, fetches)
		ledger.Add(sim.OpVec, alu)
		cycles := float64(fetches)*d.cfg.FetchCycles + float64(alu)*d.cfg.ALUCycles
		bd.Add("compute", cycles/float64(d.cfg.Pipelines)/d.cfg.CoreHz)
		bd.Add("dispatch", d.cfg.DispatchSec)

		// Read back accelerations; the PE contributions ride along in
		// the w component "for free" and are reduced on the CPU — unless
		// the rejected multi-pass GPU reduction is being ablated.
		bd.Add("pcie", d.transferSec(bytesPerArray))
		var pe float32
		if d.cfg.PEViaReduction {
			peData := make([]Float4, n)
			for i := range out {
				peData[i] = Float4{out[i][3], 0, 0, 0}
			}
			sum, _, sec := d.ReduceSum(peData)
			bd.Add("reduction", sec)
			bd.Add("pcie", d.transferSec(16)) // the single reduced texel
			pe = sum
		}
		for i := range out {
			sys.Acc.Set(i, vec.V3[float32]{X: out[i][0], Y: out[i][1], Z: out[i][2]})
			if !d.cfg.PEViaReduction {
				pe += out[i][3]
			}
		}
		return pe / 2
	}

	for s := 0; s < w.Steps; s++ {
		sys.StepWith(forces)
	}
	if d.cfg.IncludeStartup && w.Steps > 0 {
		bd.Add("startup", d.cfg.StartupSec)
	}

	return &device.Result{
		Device:  d.Name(),
		Variant: fmt.Sprintf("%dpipe", d.cfg.Pipelines),
		N:       n,
		Steps:   w.Steps,
		PE:      float64(sys.PE), //mdlint:ignore precision widening the device-native energies into the float64 result schema
		KE:      float64(sys.KE),
		Time:    bd,
		Ledger:  ledger,
	}, nil
}

// transferSec models one PCIe transfer of the given size.
func (d *Device) transferSec(bytes int) float64 {
	return d.cfg.PCIeLatencySec + float64(bytes)/d.cfg.PCIeBytesPerSec
}

// dispatch executes one pass functionally and returns its output
// together with the modeled seconds (shader cycles across the
// pipelines plus the per-pass dispatch overhead).
func (d *Device) dispatch(p *Pass) (out []Float4, seconds float64) {
	out, fetches, alu := p.run()
	cycles := float64(fetches)*d.cfg.FetchCycles + float64(alu)*d.cfg.ALUCycles
	return out, cycles/float64(d.cfg.Pipelines)/d.cfg.CoreHz + d.cfg.DispatchSec
}

// packPositions lays out positions as float4 texels (w unused).
func packPositions(pos md.Coords[float32]) []Float4 {
	out := make([]Float4, pos.Len())
	for i := range out {
		out[i] = Float4{pos.X[i], pos.Y[i], pos.Z[i], 0}
	}
	return out
}

var _ device.Device = (*Device)(nil)
