package traffic

import "repro/internal/snapshot"

// SnapshotState encodes the generator's only mutable state — the
// packet ID counter. Pattern, rate and geometry are configuration; the
// injection RNG lives in the harness and is checkpointed there.
func (g *Generator) SnapshotState(w *snapshot.Writer) {
	w.U64(g.nextID)
}

// RestoreState decodes into a generator rebuilt from the same config.
func (g *Generator) RestoreState(r *snapshot.Reader) {
	g.nextID = r.U64()
}

func init() {
	snapshot.Register("traffic.Generator", Generator{},
		[]string{"nextID"},
		[]string{"Pattern", "Rate", "W", "H", "HotspotNode",
			"HotspotFraction", "Pool", "Stream", "out", "thr", "thrRate"})
}

var _ snapshot.Stater = (*Generator)(nil)
