package telemetry

import "repro/internal/snapshot"

// Snapshots happen at cycle boundaries, between a Tick and the next
// cycle's injection, so the window machinery is quiescent: the encoded
// state is the last-close position, the per-slot prev values and the
// cumulative latency accounting. The window record is not state: every
// close rewrites it before anything reads it. Slot registrations, sinks
// and emit buffers are construction state — the resuming driver
// rebuilds them (and attaches fresh sinks) before RestoreState runs,
// and restore validates that the rebuilt shapes match the encoded ones.
// Because window 0 already went out in the original run's stream, a
// resumed run never re-emits the meta line or CSV headers, and the
// concatenated streams equal an uninterrupted run's byte for byte.

// SnapshotState and RestoreState walk state; a restore targets a freshly
// built and frozen Metrics with the same slot registrations.
func (m *Metrics) SnapshotState(w *snapshot.Writer) { m.state(w.State()) }
func (m *Metrics) RestoreState(r *snapshot.Reader)  { m.state(r.State()) }

func (m *Metrics) state(s snapshot.State) {
	if s.Decoding() && !m.frozen {
		s.Fail("telemetry: restore before Freeze")
		return
	}
	snapshot.Int(s, &m.windows, &m.last)
	// Only a restore can find a count other than the live one.
	n := len(m.prev)
	if snapshot.Int(s, &n); n != len(m.prev) {
		s.Fail("telemetry: checkpoint has %d counter slots, this build registered %d", n, len(m.prev))
		return
	}
	snapshot.Ints(s, m.prev)
	snapshot.Ints(s, m.hist.counts[:])
	snapshot.Ints(s, m.histPrev[:])
	snapshot.Int(s, &m.latSumPrev, &m.latCntPrev)
	m.node.state(s)
	m.link.state(s)
}

func (g *grid) state(s snapshot.State) {
	n := g.n
	if snapshot.Int(s, &n); n != g.n {
		s.Fail("telemetry: checkpoint grid has %d cells, this build has %d", n, g.n)
		return
	}
	snapshot.Ints(s, g.prev)
}

var _ snapshot.Stater = (*Metrics)(nil)

func init() {
	snapshot.Register("telemetry.Metrics", Metrics{},
		[]string{"prev", "hist", "histPrev", "latSumPrev", "latCntPrev",
			"node", "link", "windows", "last"},
		[]string{
			// Construction state: options, identity and slot closures are
			// re-established by the driver before restore.
			"opt", "meta", "counters", "gauges", "latSum", "latCnt",
			"vgauges", "frozen",
			// The window record close rewrites before emitting it, the
			// reused emit buffers and the sticky sink error.
			"rec", "buf", "prom", "err",
		})
	snapshot.Register("telemetry.Options", Options{},
		// Window rides in the run config (sim encodes it there); sinks
		// are per-process attachments.
		[]string{"Window"},
		[]string{"JSONL", "NodeCSV", "LinkCSV", "Publish"})
	snapshot.Register("telemetry.Hist", Hist{},
		[]string{"counts"}, nil)
	snapshot.Register("telemetry.grid", grid{},
		[]string{"prev"},
		[]string{"n", "read"})
}
