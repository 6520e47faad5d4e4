package swap

import "repro/internal/snapshot"

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly attached controller.
func (c *Controller) SnapshotState(w *snapshot.Writer) { c.state(w.State()) }
func (c *Controller) RestoreState(r *snapshot.Reader)  { c.state(r.State()) }

// state walks SWAP's mutable state — the activity counters are all of
// it: swap decisions are recomputed from live buffer state every cycle.
func (c *Controller) state(s snapshot.State) {
	snapshot.Int(s, &c.Swaps, &c.Moves, &c.Misroutes)
}

func init() {
	snapshot.Register("swap.Controller", Controller{},
		[]string{"Swaps", "Moves", "Misroutes"},
		[]string{"prm"})
}

var _ snapshot.Stater = (*Controller)(nil)
