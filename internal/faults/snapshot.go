package faults

import "repro/internal/snapshot"

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly constructed injector (same plan, topology and seed).
func (j *Injector) SnapshotState(w *snapshot.Writer) { j.state(w.State()) }
func (j *Injector) RestoreState(r *snapshot.Reader)  { j.state(r.State()) }

// state walks the injector's mutable state: the RNG stream position,
// per-victim expiry cycles, the targeted-event cursor and the activity
// counters. The event list itself, the plan and the hashed per-event
// draw key are pure functions of (plan, topology, seed) and come from
// NewInjector. A restore targets a source at zero draws, so skipping the
// recorded count lands the stream exactly where the snapshot left it,
// and refills the empty active lists from the expiries.
func (j *Injector) state(s snapshot.State) {
	draws := j.src.Draws()
	snapshot.Uint(s, &draws)
	snapshot.Int(s, &j.cycle)
	if s.Decoding() {
		// A cycle draws a trial and a victim or two per fault kind: a
		// count past sixteen per cycle is corrupt, and replaying it
		// would spin.
		if j.cycle < 0 || draws > 16*uint64(j.cycle+1) {
			s.Fail("faults: %d draws by cycle %d", draws, j.cycle)
		} else {
			j.src.Skip(draws)
		}
	}
	snapshot.Int(s, &j.nextEvent)
	snapshot.Uint(s, &j.permGen)
	snapshot.Ints(s, j.linkDownUntil)
	snapshot.Ints(s, j.portStallUntil)
	snapshot.Ints(s, j.consumerStallUntil)
	k := &j.Counters
	snapshot.Int(s, &k.LinkFails, &k.PortStalls, &k.ConsumerStalls, &k.FlitsCorrupted, &k.CorruptionsDetected, &k.CreditsLost)
	if !s.Decoding() {
		return
	}
	for i, until := range j.linkDownUntil {
		if j.cycle < until {
			j.down = append(j.down, int32(i))
		}
	}
	for i, until := range j.portStallUntil {
		if j.cycle < until {
			j.stalled = append(j.stalled, int32(i))
		}
	}
}

func init() {
	snapshot.Register("faults.Injector", Injector{},
		[]string{
			"src", "cycle", "nextEvent", "permGen",
			"linkDownUntil", "portStallUntil", "consumerStallUntil",
			"Counters",
		},
		[]string{
			// Derived from (plan, topology, seed) in NewInjector.
			"plan", "rng", "hashKey", "numLinks", "numNodes", "numPorts",
			"events",
			"down", "stalled", // re-derived from the expiry cycles
			"untilArr", "activeArr", // the arrays behind them
		})
	snapshot.Register("faults.Counters", Counters{},
		[]string{
			"LinkFails", "PortStalls", "ConsumerStalls",
			"FlitsCorrupted", "CorruptionsDetected", "CreditsLost",
		},
		nil)
}
