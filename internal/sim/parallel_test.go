package sim

import (
	"math"
	"testing"

	"repro/internal/traffic"
)

// sweepBase is a deliberately small config whose rate grid crosses the
// saturation cliff, so the equivalence checks cover measured points,
// the two trailing saturated points, and the padded tail.
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

// TestSweepLatencyJobsEquivalence is the determinism contract of the
// parallel runner: for the same seed, -j 1 and -j 8 must produce
// field-identical sweeps (NaN-safe via the rendered fingerprint).
func TestSweepLatencyJobsEquivalence(t *testing.T) {
	rates := []float64{0.02, 0.10, 0.30, 0.50, 0.70, 0.90}
	for _, s := range []Scheme{FastPass, EscapeVC, TFC} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			serial := SweepLatencyJobs(sweepBase(s), rates, 1)
			parallel8 := SweepLatencyJobs(sweepBase(s), rates, 8)
			if len(serial) != len(rates) || len(parallel8) != len(rates) {
				t.Fatalf("lengths %d/%d, want %d", len(serial), len(parallel8), len(rates))
			}
			for i := range serial {
				fa, fb := resultFingerprint(serial[i]), resultFingerprint(parallel8[i])
				if fa != fb {
					t.Errorf("rate %v: -j 1 and -j 8 disagree\n-j 1: %s\n-j 8: %s", rates[i], fa, fb)
				}
			}
		})
	}
}

// TestSaturationThroughputJobsEquivalence repeats the contract for the
// bisection's parallel bracket phase.
func TestSaturationThroughputJobsEquivalence(t *testing.T) {
	base := sweepBase(EscapeVC)
	r1, t1 := SaturationThroughputJobs(base, 0.01, 0.9, 4, 1)
	r8, t8 := SaturationThroughputJobs(base, 0.01, 0.9, 4, 8)
	if r1 != r8 || t1 != t8 {
		t.Errorf("-j 1 got (%v, %v), -j 8 got (%v, %v)", r1, t1, r8, t8)
	}
	// Saturated low bracket: the serial path skips the hi probe, the
	// parallel path runs it speculatively; returns must still agree.
	lo := sweepBase(TFC)
	lo.SatLatency = 1 // every point counts as saturated
	probes := 0
	lo.Instrument = func(*SynthConfig) { probes++ }
	r1, t1 = SaturationThroughputJobs(lo, 0.05, 0.5, 3, 1)
	if probes != 1 {
		t.Errorf("saturated bracket at -j 1 ran %d probes, want 1", probes)
	}
	lo.Instrument = nil
	r8, t8 = SaturationThroughputJobs(lo, 0.05, 0.5, 3, 8)
	if r1 != r8 || t1 != t8 || r1 != 0.05 || t1 != 0 {
		t.Errorf("saturated bracket: -j 1 (%v, %v) vs -j 8 (%v, %v), want (0.05, 0)", r1, t1, r8, t8)
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
	for _, jobs := range []int{1, 8} {
		out := SweepLatencyJobs(base, rates, jobs)
		// Points 0 and 1 are measured (and saturated); 2.. are padded.
		for i := 0; i < 2; i++ {
			if out[i].Samples == 0 {
				t.Errorf("jobs=%d: measured point %d has no samples", jobs, i)
			}
		}
		for i := 2; i < len(out); i++ {
			p := out[i]
			if p.Scheme != base.Scheme || p.Pattern != base.Pattern || p.Rate != rates[i] || !p.Saturated {
				t.Errorf("jobs=%d: padded point %d lost its identity: %+v", jobs, i, p)
			}
			for name, v := range map[string]float64{
				"AvgLatency": p.AvgLatency, "P99Latency": p.P99Latency,
				"RegularLatency":   p.RegularLatency,
				"FastSplitRegular": p.FastSplitRegular, "FastSplitFast": p.FastSplitFast,
			} {
				if !math.IsNaN(v) {
					t.Errorf("jobs=%d: padded point %d carries stale %s = %v", jobs, i, name, v)
				}
			}
			if p.Throughput != 0 || p.FlitThroughput != 0 || p.Samples != 0 ||
				p.DeliveredFrac != 0 || p.RegularFrac != 0 || p.FastFrac != 0 ||
				p.DroppedFrac != 0 || p.Promoted != 0 || p.Drops != 0 {
				t.Errorf("jobs=%d: padded point %d carries stale counters: %+v", jobs, i, p)
			}
		}
	}
}
