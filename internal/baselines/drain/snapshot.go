package drain

import "repro/internal/snapshot"

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly attached controller.
func (c *Controller) SnapshotState(w *snapshot.Writer) { c.state(w.State()) }
func (c *Controller) RestoreState(r *snapshot.Reader)  { c.state(r.State()) }

// state walks DRAIN's mutable state: whether a drain window is active
// plus the activity counters. The serpentine order is a pure function of
// the mesh; rotation victims are per-cycle scratch.
func (c *Controller) state(s snapshot.State) {
	s.Bool(&c.Draining)
	snapshot.Int(s, &c.Rotations, &c.Windows)
}

func init() {
	snapshot.Register("drain.Controller", Controller{},
		[]string{"Draining", "Rotations", "Windows"},
		[]string{"prm", "order", "victims", "occupied"})
}

var _ snapshot.Stater = (*Controller)(nil)
