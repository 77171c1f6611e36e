package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/mdrun"
)

// TestNormalizedSpecPinned pins the exact record the server persists
// for a spread of specs, small boxes (whose cutoff shrinks to fit)
// included: the bytes a restarted server replays must not move, and
// an NVE job has one record however its thermostat is spelled.
func TestNormalizedSpecPinned(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Atoms: 2, Steps: 1},
			`{"atoms":2,"steps":1,"density":0.8442,"temperature":0.728,"cutoff":0.6598827083678873,"dt":0.004,"seed":20070326,"method":"direct","workers":1,"skin":0.4,"checkpoint_every":50,"keep_checkpoints":3}`},
		{Spec{Atoms: 32, Steps: 10},
			`{"atoms":32,"steps":10,"density":0.8442,"temperature":0.728,"cutoff":1.6628002294686821,"dt":0.004,"seed":20070326,"method":"direct","workers":1,"skin":0.4,"checkpoint_every":50,"keep_checkpoints":3}`},
		{Spec{Atoms: 32, Steps: 10, Density: 0.5, Thermostat: "rescale"},
			`{"atoms":32,"steps":10,"density":0.5,"temperature":0.728,"cutoff":1.98,"dt":0.004,"seed":20070326,"method":"direct","workers":1,"skin":0.4,"thermostat":"rescale","checkpoint_every":50,"keep_checkpoints":3}`},
		{Spec{Atoms: 108, Steps: 10, Thermostat: "nve"},
			`{"atoms":108,"steps":10,"density":0.8442,"temperature":0.728,"cutoff":2.5,"dt":0.004,"seed":20070326,"method":"direct","workers":1,"skin":0.4,"checkpoint_every":50,"keep_checkpoints":3}`},
		{Spec{Atoms: 108, Steps: 10},
			`{"atoms":108,"steps":10,"density":0.8442,"temperature":0.728,"cutoff":2.5,"dt":0.004,"seed":20070326,"method":"direct","workers":1,"skin":0.4,"checkpoint_every":50,"keep_checkpoints":3}`},
		{Spec{Atoms: 256, Steps: 100, Method: "pairlist", Thermostat: "rescale"},
			`{"atoms":256,"steps":100,"density":0.8442,"temperature":0.728,"cutoff":2.5,"dt":0.004,"seed":20070326,"method":"pairlist","workers":1,"skin":0.4,"thermostat":"rescale","checkpoint_every":50,"keep_checkpoints":3}`},
		{Spec{Atoms: 500, Steps: 10, Density: 0.5},
			`{"atoms":500,"steps":10,"density":0.5,"temperature":0.728,"cutoff":2.5,"dt":0.004,"seed":20070326,"method":"direct","workers":1,"skin":0.4,"checkpoint_every":50,"keep_checkpoints":3}`},
		{Spec{Atoms: 864, Steps: 10, Thermostat: "berendsen"},
			`{"atoms":864,"steps":10,"density":0.8442,"temperature":0.728,"cutoff":2.5,"dt":0.004,"seed":20070326,"method":"direct","workers":1,"skin":0.4,"thermostat":"berendsen","checkpoint_every":50,"keep_checkpoints":3}`},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.spec.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("Normalized(%+v)\n got %s\nwant %s", tc.spec, b, tc.want)
		}
	}
}

// TestSpecThermostatVocabulary pins the thermostat names a spec takes:
// mdrun's names, "" for NVE, and never Langevin.
func TestSpecThermostatVocabulary(t *testing.T) {
	for name, want := range map[string]mdrun.ThermostatKind{
		"": mdrun.NVE, "nve": mdrun.NVE, "rescale": mdrun.Rescale, "berendsen": mdrun.Berendsen,
	} {
		sp := Spec{Atoms: 108, Steps: 10, Thermostat: name}.Normalized()
		if err := sp.Validate(); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		gc, err := sp.GuardConfig(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if gc.Run.Thermostat != want {
			t.Errorf("%q runs %v, want %v", name, gc.Run.Thermostat, want)
		}
	}
	for _, name := range []string{"langevin", "Rescale", "maxwell-daemon"} {
		sp := Spec{Atoms: 108, Steps: 10, Thermostat: name}.Normalized()
		if err := sp.Validate(); err == nil {
			t.Errorf("%q accepted", name)
		}
		if _, err := sp.GuardConfig(t.TempDir()); err == nil {
			t.Errorf("GuardConfig accepted %q", name)
		}
	}
}
