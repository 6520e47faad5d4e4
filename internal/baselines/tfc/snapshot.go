package tfc

import "repro/internal/snapshot"

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly attached controller.
func (c *Controller) SnapshotState(w *snapshot.Writer) { c.state(w.State()) }
func (c *Controller) RestoreState(r *snapshot.Reader)  { c.state(r.State()) }

// state walks TFC's mutable state — only the counters: token rotation
// is a pure function of the cycle number.
func (c *Controller) state(s snapshot.State) {
	snapshot.Int(s, &c.Bypasses, &c.TokenMisses)
}

func init() {
	snapshot.Register("tfc.Controller", Controller{},
		[]string{"Bypasses", "TokenMisses"}, nil)
}

var _ snapshot.Stater = (*Controller)(nil)
