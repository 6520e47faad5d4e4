package invariant

import (
	"math"

	"repro/internal/snapshot"
)

// SnapshotState and RestoreState walk state; a restore decodes into a
// watchdog freshly Attached to the rebuilt network with the same
// options.
func (w *Watchdog) SnapshotState(sw *snapshot.Writer) { w.state(sw.State()) }
func (w *Watchdog) RestoreState(r *snapshot.Reader)   { w.state(r.State()) }

// state walks the watchdog's accumulated verdicts and its sampling
// phase: recorded violations, the stride countdown (so the next sample
// lands on the same cycle it would have uninterrupted), the credit-audit
// suspect clocks and the progress baseline. The live set and allocation
// marks are per-sample scratch rebuilt from network state.
func (w *Watchdog) state(s snapshot.State) {
	snapshot.Slice(s, &w.violations, math.MaxInt, "invariant: violations", func(s snapshot.State, v *Violation) {
		snapshot.Int(s, &v.Kind)
		snapshot.Int(s, &v.Cycle)
		s.Str(&v.Report)
		snapshot.Slice(s, &v.Packets, math.MaxInt, "invariant: violation packets", func(s snapshot.State, id *uint64) { snapshot.Uint(s, id) })
		snapshot.Int(s, &v.Enqueued, &v.Consumed)
	})
	s.Bool(&w.fatal)
	s.Bool(&w.deadlocked)
	snapshot.Int(s, &w.leaks, &w.countdown)
	// Only a restore can find a count other than the live one.
	k := len(w.suspect)
	if snapshot.Int(s, &k); k != len(w.suspect) {
		s.Fail("invariant: checkpoint has %d credit-audit resources, watchdog has %d", k, len(w.suspect))
		return
	}
	snapshot.Ints(s, w.suspect)
	snapshot.Int(s, &w.lastProgress, &w.lastProgressCycle)
}

func init() {
	snapshot.Register("invariant.Watchdog", Watchdog{},
		[]string{"violations", "fatal", "deadlocked", "leaks", "countdown",
			"suspect", "lastProgress", "lastProgressCycle"},
		[]string{"net", "opts", "held", "numPorts", "resStep", "netVCs",
			"live", "noteLive", "allocMark", "starved",
			// Per-sample scratch, rewritten before any record().
			"sampEnq", "sampCons"})
	snapshot.Register("invariant.Violation", Violation{},
		[]string{"Kind", "Cycle", "Report", "Packets", "Enqueued", "Consumed"}, nil)
}

var _ snapshot.Stater = (*Watchdog)(nil)
