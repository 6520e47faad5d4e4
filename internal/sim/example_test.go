package sim_test

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// ExampleRunSynthetic measures one synthetic point: FastPass on a 4×4
// mesh under light uniform traffic.
func ExampleRunSynthetic() {
	res := sim.RunSynthetic(sim.SynthConfig{
		Options: sim.Options{Scheme: sim.FastPass, W: 4, H: 4, Seed: 1},
		Pattern: traffic.Uniform,
		Rate:    0.02,
		Warmup:  500, Measure: 2000, Drain: 1500,
	})
	fmt.Println("saturated:", res.Saturated)
	fmt.Println("delivered everything:", res.DeliveredFrac > 0.99)
	// Output:
	// saturated: false
	// delivered everything: true
}

// ExampleRunApp runs a coherence-protocol workload (the Fig. 10
// methodology) on the VN-free Pitstop baseline.
func ExampleRunApp() {
	app, _ := workload.Get("Volrend")
	app.WorkQuota = 200
	res := sim.RunApp(sim.AppConfig{
		Options:   sim.Options{Scheme: sim.Pitstop, W: 4, H: 4, Seed: 5},
		App:       app,
		MaxCycles: 200000,
	})
	fmt.Println("completed the quota:", !res.Timeout)
	// Output:
	// completed the quota: true
}
