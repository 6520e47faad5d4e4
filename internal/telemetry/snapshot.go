package telemetry

import "repro/internal/snapshot"

// Snapshots happen at cycle boundaries, between a Tick and the next
// cycle's injection, so the window machinery is quiescent: the encoded
// state is the last-close position, the per-slot prev values and the
// cumulative latency accounting. The window record is not state: every
// close rewrites it before anything reads it. Slot registrations, sinks
// and emit buffers are construction state — the resuming driver
// rebuilds them (and attaches fresh sinks) before RestoreState runs,
// and restore validates that the rebuilt shapes match the encoded ones. Because window 0 already went out in the
// original run's stream, a resumed run never re-emits the meta line or
// CSV headers, and the concatenated streams equal an uninterrupted
// run's byte for byte.

// SnapshotState implements snapshot.Stater.
func (m *Metrics) SnapshotState(w *snapshot.Writer) {
	w.I64(m.windows)
	w.I64(m.last)
	w.Int(len(m.prev))
	for _, v := range m.prev {
		w.I64(v)
	}
	for _, c := range m.hist.counts {
		w.I64(c)
	}
	for _, c := range m.histPrev {
		w.I64(c)
	}
	w.I64(m.latSumPrev)
	w.I64(m.latCntPrev)
	writeGrid(w, &m.node)
	writeGrid(w, &m.link)
}

// RestoreState implements snapshot.Stater against a freshly built and
// frozen Metrics with the same slot registrations.
func (m *Metrics) RestoreState(r *snapshot.Reader) {
	if !m.frozen {
		r.Fail("telemetry: restore before Freeze")
		return
	}
	m.windows = r.I64()
	m.last = r.I64()
	if n := r.Int(); n != len(m.prev) {
		r.Fail("telemetry: checkpoint has %d counter slots, this build registered %d", n, len(m.prev))
		return
	}
	for i := range m.prev {
		m.prev[i] = r.I64()
	}
	for i := range m.hist.counts {
		m.hist.counts[i] = r.I64()
	}
	for i := range m.histPrev {
		m.histPrev[i] = r.I64()
	}
	m.latSumPrev = r.I64()
	m.latCntPrev = r.I64()
	readGrid(r, &m.node)
	readGrid(r, &m.link)
}

func writeGrid(w *snapshot.Writer, g *grid) {
	w.Int(g.n)
	for _, v := range g.prev {
		w.I64(v)
	}
}

func readGrid(r *snapshot.Reader, g *grid) {
	if n := r.Int(); n != g.n {
		r.Fail("telemetry: checkpoint grid has %d cells, this build has %d", n, g.n)
		return
	}
	for i := range g.prev {
		g.prev[i] = r.I64()
	}
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
