package exp

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/traffic"
)

// run runs a plan's cells on jobs workers, then assembles its result.
func run[R any](jobs int, p Plan[R]) R {
	parallel.Map(jobs, p.Cells, func(cell func()) struct{} {
		cell()
		return struct{}{}
	})
	return p.Result()
}

// fingerprint renders a result structure field-for-field; fmt sorts map
// keys and prints NaN as "NaN", so the rendered forms compare reliably
// where the raw structs would not.
func fingerprint(v any) string { return fmt.Sprintf("%+v", v) }

// TestFig7JobsEquivalence asserts the experiment-level determinism
// contract: an entire figure computed serially and with eight workers
// (one cell per scheme, each a serial rate sweep) is field-identical.
func TestFig7JobsEquivalence(t *testing.T) {
	serial := run(1, Fig7(quick, traffic.Transpose))
	parallel8 := run(8, Fig7(quick, traffic.Transpose))
	if fa, fb := fingerprint(serial), fingerprint(parallel8); fa != fb {
		t.Errorf("Fig7 at -j 1 and -j 8 disagree\n-j 1: %s\n-j 8: %s", fa, fb)
	}
}

// TestHotspotJobsEquivalence repeats the contract on the hotspot grid,
// one cell per (fraction, scheme) run.
func TestHotspotJobsEquivalence(t *testing.T) {
	serial := run(1, Hotspot(quick))
	parallel8 := run(8, Hotspot(quick))
	if fa, fb := fingerprint(serial), fingerprint(parallel8); fa != fb {
		t.Errorf("Hotspot at -j 1 and -j 8 disagree\n-j 1: %s\n-j 8: %s", fa, fb)
	}
}
