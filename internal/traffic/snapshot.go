package traffic

import "repro/internal/snapshot"

// SnapshotState and RestoreState walk state; a restore decodes into a
// generator rebuilt from the same config.
func (g *Generator) SnapshotState(w *snapshot.Writer) { g.state(w.State()) }
func (g *Generator) RestoreState(r *snapshot.Reader)  { g.state(r.State()) }

// state walks the generator's only mutable state — the packet ID
// counter. Pattern, rate and geometry are configuration; the injection
// RNG lives in the harness and is checkpointed there.
func (g *Generator) state(s snapshot.State) { snapshot.Uint(s, &g.nextID) }

func init() {
	snapshot.Register("traffic.Generator", Generator{},
		[]string{"nextID"},
		[]string{"Pattern", "Rate", "W", "H", "HotspotNode",
			"HotspotFraction", "Pool", "Stream", "out", "thr", "thrRate"})
}

var _ snapshot.Stater = (*Generator)(nil)
