package pitstop

import "repro/internal/snapshot"

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly attached controller.
func (c *Controller) SnapshotState(w *snapshot.Writer) { c.state(w.State()) }
func (c *Controller) RestoreState(r *snapshot.Reader)  { c.state(r.State()) }

// state walks Pitstop's mutable state: the per-node pit contents
// (packet references, in absorption order) and the activity counters.
func (c *Controller) state(s snapshot.State) {
	for node := range c.pits {
		snapshot.Packets(s, &c.pits[node], "pitstop pit")
	}
	snapshot.Int(s, &c.Absorbed, &c.Reinjected)
}

func init() {
	snapshot.Register("pitstop.Controller", Controller{},
		[]string{"pits", "Absorbed", "Reinjected"},
		[]string{"classSlot"})
}

var _ snapshot.Stater = (*Controller)(nil)
