package campaign

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// resilienceConfig is the resilience experiment's shape (sweep
// -fault-scales): static variants, one seed, and a small, fast base
// exercising every fault category at once.
func resilienceConfig(jobs int, scales []float64, schemes ...sim.Scheme) Config {
	c := Config{
		Base: sim.SynthConfig{
			Options: sim.Options{
				W: 4, H: 4,
				Faults:   "linkfail:rate=0.002,dur=64;portstall:rate=0.002,dur=32;corrupt:rate=0.001;creditloss:rate=0.001;stallconsumer:rate=0.0005,dur=128",
				Watchdog: "on",
			},
			Pattern: traffic.Uniform,
			Rate:    0.05,
			Warmup:  300, Measure: 800, Drain: 400,
		},
		Scales: scales,
		Seeds:  []int64{7},
		Jobs:   jobs,
	}
	for _, s := range schemes {
		c.Variants = append(c.Variants, Variant{Scheme: s})
	}
	return c
}

// runCells runs every grid cell the way sweep -fault-scales does.
func runCells(t *testing.T, c Config) []sim.SynthResult {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return parallel.Map(c.Jobs, Grid(c), func(p Point) sim.SynthResult { return sim.RunSynthetic(c.Cell(p)) })
}

// TestResilienceSmoke runs the sweep shape on two schemes and checks
// the accounting: cells come back scheme-major, the fault-free control
// injects nothing, and the full-intensity cells actually exercised the
// injector.
func TestResilienceSmoke(t *testing.T) {
	c := resilienceConfig(1, []float64{0, 1}, sim.FastPass, sim.EscapeVC)
	pts, res := Grid(c), runCells(t, c)
	if len(res) != 4 {
		t.Fatalf("got %d points, want 4", len(res))
	}
	for i, want := range []struct {
		scheme sim.Scheme
		scale  float64
	}{{sim.FastPass, 0}, {sim.FastPass, 1}, {sim.EscapeVC, 0}, {sim.EscapeVC, 1}} {
		if res[i].Scheme != want.scheme || pts[i].Scale != want.scale {
			t.Errorf("point %d = (%v, %g), want (%v, %g)", i, res[i].Scheme, pts[i].Scale, want.scheme, want.scale)
		}
	}
	for i, r := range res {
		if pts[i].Scale == 0 {
			if r.Faults != (faults.Counters{}) {
				t.Errorf("%v scale 0 injected faults: %+v", r.Scheme, r.Faults)
			}
			if r.Aborted {
				t.Errorf("%v fault-free control aborted:\n%s", r.Scheme, r.AbortReport)
			}
		} else if r.Faults.LinkFails == 0 && r.Faults.PortStalls == 0 && r.Faults.CreditsLost == 0 {
			t.Errorf("%v scale 1 shows no injector activity: %+v", r.Scheme, r.Faults)
		}
		if r.Created == 0 || r.Created != r.Delivered+r.Stranded {
			t.Errorf("%v scale %g: created %d != delivered %d + stranded %d",
				r.Scheme, pts[i].Scale, r.Created, r.Delivered, r.Stranded)
		}
	}
}

// TestResilienceDeterministicAcrossJobs: an identical fault sweep at
// -j 1 and -j 8 must produce bit-identical results.
func TestResilienceDeterministicAcrossJobs(t *testing.T) {
	scales := []float64{0, 0.5, 1}
	serial := runCells(t, resilienceConfig(1, scales, sim.FastPass, sim.EscapeVC, sim.Pitstop))
	par := runCells(t, resilienceConfig(8, scales, sim.FastPass, sim.EscapeVC, sim.Pitstop))
	if len(serial) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		// Field-rendered comparison: DeepEqual would flag NaN latencies
		// on saturated points as unequal even when bit-identical.
		s, p := fmt.Sprintf("%+v", serial[i]), fmt.Sprintf("%+v", par[i])
		if s != p {
			t.Errorf("point %d differs between -j 1 and -j 8:\n  -j1 %s\n  -j8 %s", i, s, p)
		}
	}
}
