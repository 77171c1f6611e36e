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
		// Equilibrate, then measure on a runner whose window starts
		// after equilibration.
		if _, err := r.Run(150); err != nil {
			t.Fatal(err)
		}
		prod, err := NewFromSystem(r.System(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := prod.Run(200)
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
	if len(sum.RDF) != rdfBins {
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

// TestNonFiniteParametersRejected pins that a NaN or infinite
// thermostat, lattice, neighbor-list or RDF parameter is refused where
// it enters, by the constructor and by mdrun.New, instead of running
// to a NaN or wrong energy.
func TestNonFiniteParametersRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	generate := func(mod func(*lattice.Config)) func() error {
		return func() error {
			c := lattice.Config{N: 32, Density: 0.8442, Temperature: 0.7, Kind: lattice.FCC, Seed: 1}
			mod(&c)
			_, err := lattice.Generate(c)
			return err
		}
	}
	newRunner := func(mod func(*Config)) func() error {
		return func() error {
			c := baseConfig()
			mod(&c)
			_, err := New(c)
			return err
		}
	}
	cases := []struct {
		name string
		make func() error
	}{
		{"rescale target NaN", func() error { _, err := md.NewRescaleThermostat(nan, 10); return err }},
		{"rescale target +Inf", func() error { _, err := md.NewRescaleThermostat(inf, 10); return err }},
		{"berendsen target +Inf", func() error { _, err := md.NewBerendsenThermostat(inf, 0.004, 0.1); return err }},
		{"berendsen tau NaN", func() error { _, err := md.NewBerendsenThermostat(1, 0.004, nan); return err }},
		{"berendsen tau +Inf", func() error { _, err := md.NewBerendsenThermostat(1, 0.004, inf); return err }},
		{"berendsen dt NaN", func() error { _, err := md.NewBerendsenThermostat(1, nan, 0.1); return err }},
		{"langevin target NaN", func() error { _, err := md.NewLangevinThermostat(nan, 0.004, 1, 1); return err }},
		{"langevin gamma NaN", func() error { _, err := md.NewLangevinThermostat(1, 0.004, nan, 1); return err }},
		{"langevin dt NaN", func() error { _, err := md.NewLangevinThermostat(1, nan, 1, 1); return err }},
		{"neighbor list skin NaN", func() error { _, err := md.NewNeighborList(nan); return err }},
		{"neighbor list skin +Inf", func() error { _, err := md.NewNeighborList(inf); return err }},
		{"rdf rMax NaN", func() error { _, err := md.NewRDF(10, nan, 5); return err }},
		{"lattice temperature NaN", generate(func(c *lattice.Config) { c.Temperature = nan })},
		{"lattice temperature +Inf", generate(func(c *lattice.Config) { c.Temperature = inf })},
		{"lattice density NaN", generate(func(c *lattice.Config) { c.Density = nan })},
		{"lattice density +Inf", generate(func(c *lattice.Config) { c.Density = inf })},
		{"mdrun rescale temperature NaN", newRunner(func(c *Config) { c.Thermostat, c.Temperature = Rescale, nan })},
		{"mdrun temperature NaN", newRunner(func(c *Config) { c.Temperature = nan })},
		{"mdrun pairlist skin NaN", newRunner(func(c *Config) { c.Method, c.PairlistSkin = Pairlist, nan })},
	}
	for _, tc := range cases {
		if err := tc.make(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestNegativeStridesRejected pins that New and NewFromSystem refuse a
// negative SampleEvery or TrajectoryEvery instead of running it as its
// absolute value.
func TestNegativeStridesRejected(t *testing.T) {
	r, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"SampleEvery -3", func(c *Config) { c.SampleEvery = -3 }},
		{"TrajectoryEvery -3", func(c *Config) { c.TrajectoryEvery = -3 }},
	} {
		cfg := baseConfig()
		tc.mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("New: %s accepted", tc.name)
		}
		if _, err := NewFromSystem(r.System().Clone(), cfg); err == nil {
			t.Errorf("NewFromSystem: %s accepted", tc.name)
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
	for _, k := range []ThermostatKind{NVE, Rescale, Berendsen, Langevin} {
		if got, err := ParseThermostat(k.String()); err != nil || got != k {
			t.Errorf("ParseThermostat(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		got, err := ParseCheckpointableThermostat(k.String())
		if refused := err != nil; refused != (k == Langevin) || (err == nil && got != k) {
			t.Errorf("ParseCheckpointableThermostat(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, s := range []string{"Rescale", "maxwell-daemon"} {
		if _, err := ParseThermostat(s); err == nil {
			t.Errorf("ParseThermostat accepted %q", s)
		}
	}
}
