package sim

import (
	"testing"

	"repro/internal/traffic"
)

// resilienceBase is a small, fast configuration exercising every fault
// category at once (internal/campaign's resilience tests sweep the same
// plan across scales).
func resilienceBase() SynthConfig {
	return SynthConfig{
		Options: Options{
			W: 4, H: 4, Seed: 7,
			Faults:   "linkfail:rate=0.002,dur=64;portstall:rate=0.002,dur=32;corrupt:rate=0.001;creditloss:rate=0.001;stallconsumer:rate=0.0005,dur=128",
			Watchdog: "on",
		},
		Pattern: traffic.Uniform,
		Rate:    0.05,
		Warmup:  300, Measure: 800, Drain: 400,
	}
}

// TestFastPassNeverTripsUnderFaults drives FastPass through the full
// resilience intensity with the watchdog at its most suspicious
// settings that still cannot false-positive on healthy slowness, and
// requires a clean finish: no abort, no deadlock.
func TestFastPassNeverTripsUnderFaults(t *testing.T) {
	base := resilienceBase()
	base.Scheme = FastPass
	base.FaultScale = 1
	res := RunSynthetic(base)
	if res.Aborted {
		t.Fatalf("FastPass aborted under faults at cycle %d:\n%s", res.AbortCycle, res.AbortReport)
	}
	if res.DeadlockDetected {
		t.Fatal("FastPass reported a deadlock under faults")
	}
	if res.Delivered == 0 {
		t.Fatal("FastPass delivered nothing under faults")
	}
}

// TestCorruptionIsDetected cranks only the corruption rate and checks
// the checksum pipeline: corrupted deliveries are flagged, and every
// injector corruption that reached a destination was detected.
func TestCorruptionIsDetected(t *testing.T) {
	base := resilienceBase()
	base.Scheme = EscapeVC
	base.Faults = "corrupt:rate=0.02"
	base.FaultScale = 1
	res := RunSynthetic(base)
	if res.Faults.FlitsCorrupted == 0 {
		t.Fatal("corruption rate 0.02 corrupted nothing")
	}
	if res.CorruptedDelivered == 0 {
		t.Fatal("no corrupted packet was flagged at delivery")
	}
	if res.Faults.CorruptionsDetected == 0 {
		t.Fatal("checksum check never fired")
	}
}
