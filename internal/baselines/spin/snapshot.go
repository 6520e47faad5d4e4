package spin

import (
	"math"

	"repro/internal/snapshot"
)

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly attached controller.
func (c *Controller) SnapshotState(w *snapshot.Writer) { c.state(w.State()) }
func (c *Controller) RestoreState(r *snapshot.Reader)  { c.state(r.State()) }

// state walks SPIN's mutable state: per-router probe cooldowns,
// confirmed loops awaiting their coordination delay (chains carry packet
// IDs, not pointers — the spin re-validates against live state when it
// fires) and the protocol counters.
func (c *Controller) state(s snapshot.State) {
	snapshot.Ints(s, c.lastProbe)
	snapshot.Slice(s, &c.pending, math.MaxInt, "spin pending loops", func(s snapshot.State, ps *pendingSpin) {
		snapshot.Int(s, &ps.at)
		snapshot.Slice(s, &ps.chain, math.MaxInt, "spin chain", func(s snapshot.State, sl *slot) {
			snapshot.Int(s, &sl.node)
			snapshot.Int(s, &sl.port)
			snapshot.Int(s, &sl.vc)
			snapshot.Uint(s, &sl.pkt)
		})
	})
	snapshot.Int(s, &c.Probes, &c.Detections, &c.Spins, &c.Aborts)
}

func init() {
	snapshot.Register("spin.Controller", Controller{},
		[]string{"lastProbe", "pending", "Probes", "Detections", "Spins", "Aborts"},
		[]string{"prm", "maxWalk", "chain", "seen", "gen", "chains", "pkts"}) // + probe and spin scratch
	snapshot.Register("spin.pendingSpin", pendingSpin{},
		[]string{"chain", "at"}, nil)
	snapshot.Register("spin.slot", slot{},
		[]string{"node", "port", "vc", "pkt"}, nil)
}

var _ snapshot.Stater = (*Controller)(nil)
