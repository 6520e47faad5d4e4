package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// recoveries reads the recovery-action total out of a recorder's
// per-kind summary ("  recovery     N"), 0 when none was recorded.
func recoveries(summary string) int {
	for _, line := range strings.Split(summary, "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "  recovery %d", &n); err == nil {
			return n
		}
	}
	return 0
}

// TestBaselineRecoveryReachesTrace drives each recovery baseline past
// saturation on a 4×4 mesh, where its mechanism must fire, and requires
// the run's trace to hold the recovery actions its controller took:
// the recorder Build hands the network reaches every controller, not
// FastPass's alone.
func TestBaselineRecoveryReachesTrace(t *testing.T) {
	for _, s := range []Scheme{SPIN, SWAP, DRAIN, Pitstop} {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			run := NewSynthetic(SynthConfig{
				Options: Options{Scheme: s, W: 4, H: 4, Seed: 1, DrainPeriod: 512, TraceCapacity: 64},
				Pattern: traffic.Uniform, Rate: 0.5,
				Warmup: 1000, Measure: 38000, Drain: 1000,
			})
			finish(run)
			sum := run.Inst.Trace.Summary()
			t.Logf("%v: %d recovery actions", s, recoveries(sum))
			if recoveries(sum) == 0 {
				t.Errorf("%v recorded no recovery action:\n%s", s, sum)
			}
		})
	}
}
