package faults

import "repro/internal/snapshot"

// SnapshotState encodes the injector's mutable state: the RNG stream
// position, per-victim expiry cycles, the targeted-event cursor and
// the activity counters. The event list itself, the plan and the
// hashed per-event draw key are pure functions of (plan, topology,
// seed) and come from NewInjector.
func (j *Injector) SnapshotState(w *snapshot.Writer) {
	w.U64(j.src.Draws())
	w.I64(j.cycle)
	w.Int(j.nextEvent)
	w.U64(j.permGen)
	for _, v := range j.linkDownUntil {
		w.I64(v)
	}
	for _, v := range j.portStallUntil {
		w.I64(v)
	}
	for _, v := range j.consumerStallUntil {
		w.I64(v)
	}
	w.I64(j.Counters.LinkFails)
	w.I64(j.Counters.PortStalls)
	w.I64(j.Counters.ConsumerStalls)
	w.I64(j.Counters.FlitsCorrupted)
	w.I64(j.Counters.CorruptionsDetected)
	w.I64(j.Counters.CreditsLost)
}

// RestoreState decodes into a freshly constructed injector (same plan,
// topology and seed — its source is at zero draws, so skipping the
// recorded count lands the stream exactly where the snapshot left it,
// and its active lists are empty, to be refilled from the expiries).
func (j *Injector) RestoreState(r *snapshot.Reader) {
	j.src.Skip(r.U64())
	j.cycle = r.I64()
	j.nextEvent = r.Int()
	j.permGen = r.U64()
	for i := range j.linkDownUntil {
		if j.linkDownUntil[i] = r.I64(); j.cycle < j.linkDownUntil[i] {
			j.down = append(j.down, int32(i))
		}
	}
	for i := range j.portStallUntil {
		if j.portStallUntil[i] = r.I64(); j.cycle < j.portStallUntil[i] {
			j.stalled = append(j.stalled, int32(i))
		}
	}
	for i := range j.consumerStallUntil {
		j.consumerStallUntil[i] = r.I64()
	}
	j.Counters.LinkFails = r.I64()
	j.Counters.PortStalls = r.I64()
	j.Counters.ConsumerStalls = r.I64()
	j.Counters.FlitsCorrupted = r.I64()
	j.Counters.CorruptionsDetected = r.I64()
	j.Counters.CreditsLost = r.I64()
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
		})
	snapshot.Register("faults.Counters", Counters{},
		[]string{
			"LinkFails", "PortStalls", "ConsumerStalls",
			"FlitsCorrupted", "CorruptionsDetected", "CreditsLost",
		},
		nil)
}
