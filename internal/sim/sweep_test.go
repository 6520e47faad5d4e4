package sim

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/traffic"
)

// sweepBase is a deliberately small config whose rate grid crosses the
// saturation cliff, so the sweep checks cover measured points, the two
// trailing saturated points, and the padded tail.
func sweepBase(scheme Scheme) SynthConfig {
	return SynthConfig{
		Options: Options{
			Scheme: scheme, W: 4, H: 4, Seed: 0xFA90,
			DrainPeriod: 2048, SwapDuty: 256,
		},
		Pattern: traffic.Transpose,
		Warmup:  300, Measure: 900, Drain: 600,
	}
}

// TestSweepLatencyJobsEquivalence: every point a sweep measures is
// field-identical to an independent run at that rate (NaN-safe via the
// rendered fingerprint), so a caller may pool sweeps as cells, or split
// one into a job per rate, without changing a byte.
func TestSweepLatencyJobsEquivalence(t *testing.T) {
	rates := []float64{0.02, 0.10, 0.30, 0.50, 0.70, 0.90}
	for _, s := range []Scheme{FastPass, EscapeVC, TFC} {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			out := SweepLatency(sweepBase(s), rates)
			for i, p := range out {
				if i >= 2 && out[i-2].Saturated && out[i-1].Saturated {
					break // the padded tail
				}
				cfg := sweepBase(s)
				cfg.Rate = rates[i]
				if fa, fb := resultFingerprint(p), resultFingerprint(RunSynthetic(cfg)); fa != fb {
					t.Errorf("rate %v: sweep and independent run disagree\nsweep: %s\nrun:   %s", rates[i], fa, fb)
				}
			}
		})
	}
}

// TestSaturationThroughputJobsEquivalence: a bisection is a pure
// function of its config, so pooling bisections as cells at -j 8 returns
// exactly what -j 1 does, and the throughput it reports is that of an
// independent run at the rate it found.
func TestSaturationThroughputJobsEquivalence(t *testing.T) {
	type point struct{ rate, thr float64 }
	schemes := []Scheme{FastPass, EscapeVC, TFC}
	bisect := func(s Scheme) point {
		r, thr := SaturationThroughput(sweepBase(s), 0.01, 0.9, 4)
		return point{r, thr}
	}
	serial := parallel.Map(1, schemes, bisect)
	pooled := parallel.Map(8, schemes, bisect)
	for i, s := range schemes {
		if serial[i] != pooled[i] {
			t.Errorf("%v: -j 1 got %+v, -j 8 got %+v", s, serial[i], pooled[i])
		}
		cfg := sweepBase(s)
		cfg.Rate = serial[i].rate
		if res := RunSynthetic(cfg); res.Saturated || res.Throughput != serial[i].thr {
			t.Errorf("%v: bisection reported %+v, independent run at that rate gave (%v, saturated=%v)",
				s, serial[i], res.Throughput, res.Saturated)
		}
	}
}

// TestSweepLatencyPaddedPointsInert checks the padding bugfix: rates
// past the stop-two-after-saturation cutoff must carry no measurements
// at all — historically they copied the last measured point, leaking
// stale AvgLatency/Throughput/Samples and Fig. 9/13 fields into rates
// that were never simulated.
func TestSweepLatencyPaddedPointsInert(t *testing.T) {
	base := sweepBase(FastPass)
	base.SatLatency = 1 // every measured point saturates immediately
	rates := []float64{0.02, 0.04, 0.06, 0.08, 0.10}
	out := SweepLatency(base, rates)
	// Points 0 and 1 are measured (and saturated); 2.. are padded.
	for i := 0; i < 2; i++ {
		if out[i].Samples == 0 {
			t.Errorf("measured point %d has no samples", i)
		}
	}
	for i := 2; i < len(out); i++ {
		p := out[i]
		if p.Scheme != base.Scheme || p.Pattern != base.Pattern || p.Rate != rates[i] || !p.Saturated {
			t.Errorf("padded point %d lost its identity: %+v", i, p)
		}
		for name, v := range map[string]float64{
			"AvgLatency": p.AvgLatency, "P99Latency": p.P99Latency,
			"RegularLatency":   p.RegularLatency,
			"FastSplitRegular": p.FastSplitRegular, "FastSplitFast": p.FastSplitFast,
		} {
			if !math.IsNaN(v) {
				t.Errorf("padded point %d carries stale %s = %v", i, name, v)
			}
		}
		if p.Throughput != 0 || p.FlitThroughput != 0 || p.Samples != 0 ||
			p.DeliveredFrac != 0 || p.RegularFrac != 0 || p.FastFrac != 0 ||
			p.DroppedFrac != 0 || p.Promoted != 0 || p.Drops != 0 {
			t.Errorf("padded point %d carries stale counters: %+v", i, p)
		}
	}
}

// TestStopWhenSaturated: a probe that stops once its verdict is certain
// reaches the verdict the full run does, and a sustained probe runs in
// full to a field-identical result — across the cliff, on schemes that
// saturate by latency and by delivered fraction. Some probes must stop
// early, or the test measured nothing.
func TestStopWhenSaturated(t *testing.T) {
	stopped := 0
	for _, s := range []Scheme{FastPass, EscapeVC, TFC} {
		for _, rate := range []float64{0.02, 0.10, 0.30, 0.50, 0.90} {
			cfg := sweepBase(s)
			cfg.Rate = rate
			full := RunSynthetic(cfg)
			cfg.stopWhenSaturated = true
			run := NewSynthetic(cfg)
			got, _ := run.Run()
			if run.Inst.Cycle() < run.total() {
				stopped++
			}
			if got.Saturated != full.Saturated || !full.Saturated && resultFingerprint(got) != resultFingerprint(full) {
				t.Errorf("%v at %v: stopping probe gave saturated=%v after %d cycles, the full run saturated=%v\nprobe: %s\nfull:  %s",
					s, rate, got.Saturated, run.Inst.Cycle(), full.Saturated, resultFingerprint(got), resultFingerprint(full))
			}
		}
	}
	t.Logf("%d of 15 probes stopped early", stopped)
	if stopped < 3 {
		t.Errorf("only %d probes stopped early", stopped)
	}
}
