package spin

import (
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// SnapshotState encodes SPIN's mutable state: per-router probe
// cooldowns, confirmed loops awaiting their coordination delay (chains
// carry packet IDs, not pointers — the spin re-validates against live
// state when it fires) and the protocol counters.
func (c *Controller) SnapshotState(w *snapshot.Writer) {
	for _, v := range c.lastProbe {
		w.I64(v)
	}
	w.Int(len(c.pending))
	for _, ps := range c.pending {
		w.I64(ps.at)
		w.Int(len(ps.chain))
		for _, s := range ps.chain {
			w.Int(s.node)
			w.Int(int(s.port))
			w.Int(s.vc)
			w.U64(s.pkt)
		}
	}
	w.I64(c.Probes)
	w.I64(c.Detections)
	w.I64(c.Spins)
	w.I64(c.Aborts)
}

// RestoreState decodes into a freshly attached controller.
func (c *Controller) RestoreState(r *snapshot.Reader) {
	for i := range c.lastProbe {
		c.lastProbe[i] = r.I64()
	}
	n := r.Int()
	c.pending = c.pending[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		ps := pendingSpin{at: r.I64()}
		k := r.Int()
		for j := 0; j < k && r.Err() == nil; j++ {
			ps.chain = append(ps.chain, slot{
				node: r.Int(),
				port: topology.Direction(r.Int()),
				vc:   r.Int(),
				pkt:  r.U64(),
			})
		}
		c.pending = append(c.pending, ps)
	}
	c.Probes = r.I64()
	c.Detections = r.I64()
	c.Spins = r.I64()
	c.Aborts = r.I64()
}

func init() {
	snapshot.Register("spin.Controller", Controller{},
		[]string{"lastProbe", "pending", "Probes", "Detections", "Spins", "Aborts"},
		[]string{"prm", "Trace", "chain", "seen", "gen"}) // + probe scratch
	snapshot.Register("spin.pendingSpin", pendingSpin{},
		[]string{"chain", "at"}, nil)
	snapshot.Register("spin.slot", slot{},
		[]string{"node", "port", "vc", "pkt"}, nil)
}

var _ snapshot.Stater = (*Controller)(nil)
