package exp

import (
	"fmt"
	"testing"

	"repro/internal/traffic"
)

// fingerprint renders a result structure field-for-field; fmt sorts map
// keys and prints NaN as "NaN", so the rendered forms compare reliably
// where the raw structs would not.
func fingerprint(v any) string { return fmt.Sprintf("%+v", v) }

// TestFig7JobsEquivalence asserts the experiment-level determinism
// contract: an entire figure computed serially and with eight workers
// (one cell per scheme, each a serial rate sweep) is field-identical.
func TestFig7JobsEquivalence(t *testing.T) {
	serial := Fig7(Scale{Quick: true, Run: Pool(1)}, traffic.Transpose)
	parallel8 := Fig7(Scale{Quick: true, Run: Pool(8)}, traffic.Transpose)
	if fa, fb := fingerprint(serial), fingerprint(parallel8); fa != fb {
		t.Errorf("Fig7 at -j 1 and -j 8 disagree\n-j 1: %s\n-j 8: %s", fa, fb)
	}
}

// TestHotspotJobsEquivalence repeats the contract on the hotspot grid,
// one cell per (fraction, scheme) run.
func TestHotspotJobsEquivalence(t *testing.T) {
	serial := Hotspot(Scale{Quick: true, Run: Pool(1)})
	parallel8 := Hotspot(Scale{Quick: true, Run: Pool(8)})
	if fa, fb := fingerprint(serial), fingerprint(parallel8); fa != fb {
		t.Errorf("Hotspot at -j 1 and -j 8 disagree\n-j 1: %s\n-j 8: %s", fa, fb)
	}
}
