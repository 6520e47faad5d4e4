package trace

import "repro/internal/snapshot"

// SnapshotState and RestoreState walk state; a restore decodes into a
// recorder built with the same capacity.
func (r *Recorder) SnapshotState(w *snapshot.Writer) { r.state(w.State()) }
func (r *Recorder) RestoreState(rd *snapshot.Reader) { r.state(rd.State()) }

// state walks the recorder's exact ring layout — raw buffer order plus
// the eviction cursor, not chronological order — so restore reproduces
// the byte-identical buffer a continued run would have had. KindS is not
// encoded; restore re-derives it from Kind.
func (r *Recorder) state(s snapshot.State) {
	snapshot.Slice(s, &r.buf, cap(r.buf), "trace: retained events", func(s snapshot.State, e *Event) {
		snapshot.Int(s, &e.Cycle)
		snapshot.Byte(s, &e.Kind)
		snapshot.Uint(s, &e.Pkt)
		snapshot.Int(s, &e.Node)
		s.Str(&e.Note)
		if s.Decoding() {
			e.KindS = e.Kind.String()
		}
	})
	snapshot.Int(s, &r.next)
	snapshot.Int(s, &r.total)
	snapshot.Ints(s, r.byKind[:])
}

func init() {
	snapshot.Register("trace.Recorder", Recorder{},
		[]string{"buf", "next", "total", "byKind"}, nil)
	snapshot.Register("trace.Event", Event{},
		// KindS is re-derived from Kind on restore.
		[]string{"Cycle", "Kind", "KindS", "Pkt", "Node", "Note"}, nil)
}

var _ snapshot.Stater = (*Recorder)(nil)
