package sim_test

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

func TestSchemeRegistry(t *testing.T) {
	schemes := []sim.Scheme{sim.FastPass, sim.EscapeVC, sim.SPIN, sim.SWAP, sim.DRAIN, sim.Pitstop, sim.MinBD, sim.TFC}
	for _, s := range schemes {
		got, err := sim.ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%v): %v, %v", s, got, err)
		}
	}
}

func TestRunSyntheticSmoke(t *testing.T) {
	res := sim.RunSynthetic(sim.SynthConfig{
		Options: sim.Options{Scheme: sim.FastPass, W: 4, H: 4, Seed: 1},
		Pattern: traffic.Uniform,
		Rate:    0.05,
		Warmup:  500, Measure: 2000, Drain: 1500,
	})
	if res.Samples == 0 || math.IsNaN(res.AvgLatency) {
		t.Fatal("no measurements")
	}
	if res.Saturated {
		t.Fatal("saturated at 0.05 on 4x4")
	}
}

func TestRunAppSmoke(t *testing.T) {
	app, err := workload.Get("Volrend")
	if err != nil {
		t.Fatal(err)
	}
	app.WorkQuota = 200
	res := sim.RunApp(sim.AppConfig{
		Options:   sim.Options{Scheme: sim.Pitstop, W: 4, H: 4, Seed: 5},
		App:       app,
		MaxCycles: 200000,
	})
	if res.Timeout || res.Completed < 200 {
		t.Fatalf("app run failed: %+v", res)
	}
}
