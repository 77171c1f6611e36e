package mdrun

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/lattice"
	"repro/internal/md"
)

func baseConfig() Config {
	return Config{
		Atoms:       256,
		Density:     0.8442,
		Temperature: 0.728,
		Lattice:     lattice.FCC,
		Seed:        101,
		Cutoff:      2.5,
		Dt:          0.004,
		Shifted:     true,
	}
}

func TestNVEConservesEnergy(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	drift := math.Abs(sum.FinalEnergy-sum.InitialEnergy) / math.Abs(sum.InitialEnergy)
	if drift > 1e-3 {
		t.Fatalf("NVE drift %v", drift)
	}
}

func TestThermostatsHoldTemperature(t *testing.T) {
	for _, kind := range []ThermostatKind{Rescale, Berendsen, Langevin} {
		cfg := baseConfig()
		cfg.Thermostat = kind
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Equilibrate, then measure.
		if _, err := r.Run(150); err != nil {
			t.Fatal(err)
		}
		sum, err := r.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum.MeanTemperature-cfg.Temperature) > 0.08 {
			t.Fatalf("%v: mean T = %v, want ~%v", kind, sum.MeanTemperature, cfg.Temperature)
		}
	}
}

func TestForceMethodsAgree(t *testing.T) {
	// Both force methods must produce the same trajectory. 864 atoms
	// gives a box wide enough for the pairlist build's cell binning.
	run := func(m ForceMethod) *md.System[float64] {
		cfg := baseConfig()
		cfg.Atoms = 864
		cfg.Method = m
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(25); err != nil {
			t.Fatal(err)
		}
		return r.System()
	}
	ref := run(Direct)
	for _, m := range []ForceMethod{Pairlist} {
		got := run(m)
		for i := 0; i < ref.N(); i++ {
			if d := ref.Pos.At(i).Sub(got.Pos.At(i)).Norm(); d > 1e-8 {
				t.Fatalf("%v diverged from direct at atom %d by %v", m, i, d)
			}
		}
	}
}

func TestBondedTopologyIntegrates(t *testing.T) {
	cfg := baseConfig()
	cfg.Atoms = 108
	cfg.Topology = md.LinearChain(4, 60, 1.1) // bond the first four atoms
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	drift := math.Abs(sum.FinalEnergy-sum.InitialEnergy) / math.Abs(sum.InitialEnergy)
	if drift > 5e-3 {
		t.Fatalf("bonded NVE drift %v", drift)
	}
}

func TestBadTopologyRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.Topology = &md.Topology{Bonds: []md.Bond{{I: 0, J: 99999, K: 1, R0: 1}}}
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range topology accepted")
	}
}

func TestTrajectoryWritten(t *testing.T) {
	var buf bytes.Buffer
	cfg := baseConfig()
	cfg.Atoms = 108 // smallest system whose box still fits the 2.5 cutoff
	cfg.Trajectory = &buf
	cfg.TrajectoryEvery = 5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FramesWritten != 4 {
		t.Fatalf("FramesWritten = %d, want 4", sum.FramesWritten)
	}
	frames, err := md.NewXYZReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 || len(frames[0].Pos) != 108 {
		t.Fatalf("trajectory malformed: %d frames", len(frames))
	}
	if !strings.Contains(frames[0].Comment, "step 5") {
		t.Fatalf("comment = %q", frames[0].Comment)
	}
}

func TestRDFSampling(t *testing.T) {
	cfg := baseConfig()
	cfg.SampleRDF = true
	cfg.SampleEvery = 5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.RDF) != cfg.withDefaults().RDFBins {
		t.Fatalf("RDF bins = %d", len(sum.RDF))
	}
	// Liquid structure: a first peak above 1.
	var peak float64
	for _, g := range sum.RDF {
		if g > peak {
			peak = g
		}
	}
	if peak < 1.5 {
		t.Fatalf("RDF peak = %v, want > 1.5", peak)
	}
}

func TestMSDGrows(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MSD <= 0 {
		t.Fatalf("MSD = %v", sum.MSD)
	}
}

func TestPressurePositiveAtLiquidDensity(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sum.Pressure) || math.IsInf(sum.Pressure, 0) {
		t.Fatalf("pressure = %v", sum.Pressure)
	}
}

func TestInvalidConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Atoms = 0 },
		func(c *Config) { c.Density = 0 },
		func(c *Config) { c.Cutoff = 0 },
		func(c *Config) { c.Dt = 0 },
		func(c *Config) { c.Thermostat = ThermostatKind(99) },
		func(c *Config) { c.Method = ForceMethod(99) },
	}
	for i, mod := range cases {
		cfg := baseConfig()
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNegativeStepsRejected(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(-1); err == nil {
		t.Fatal("negative steps accepted")
	}
}

func TestZeroSteps(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.InitialEnergy != sum.FinalEnergy {
		t.Fatal("zero-step run changed energy")
	}
}

func TestStrings(t *testing.T) {
	if Direct.String() != "direct" || Pairlist.String() != "pairlist" {
		t.Fatal("ForceMethod.String")
	}
	if NVE.String() != "nve" || Rescale.String() != "rescale" || Berendsen.String() != "berendsen" || Langevin.String() != "langevin" {
		t.Fatal("ThermostatKind.String")
	}
	if ForceMethod(42).String() == "" || ThermostatKind(42).String() == "" {
		t.Fatal("unknown stringers empty")
	}
	for _, m := range []ForceMethod{Direct, Pairlist} {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
}
