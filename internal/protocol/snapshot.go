package protocol

import (
	"math"

	"repro/internal/snapshot"
)

// state walks every node's live entries in slot order; a restore refills
// every node's window.
func (t *table[T]) state(s snapshot.State, elem func(snapshot.State, *T)) {
	for node := range t.count {
		k := s.Len(t.count[node], t.per, "protocol table entries")
		if s.Decoding() {
			t.count[node] = k
		}
		live := t.live(node)
		for i := 0; i < k && s.Err() == nil; i++ {
			elem(s, &live[i])
		}
	}
}

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly constructed engine (wiring and consumers from New, mutable
// state from the checkpoint).
func (e *Engine) SnapshotState(w *snapshot.Writer) { e.state(w.State()) }
func (e *Engine) RestoreState(r *snapshot.Reader)  { e.state(r.State()) }

// state walks the engine's mutable state: RNG stream position (a
// restore replays the recorded number of source draws), ID counters,
// per-core MSHR tables and per-home TBE tables (slot order — the tables
// hold no map, so there is no iteration order to leak), the
// delayed-emission queue, the transaction counters and, last, the packet
// arena (every live packet is registered by then, so the free list only
// adds the recycled ones).
func (e *Engine) state(s snapshot.State) {
	draws := e.src.Draws()
	if snapshot.Uint(s, &draws); s.Decoding() {
		e.src.Skip(draws)
	}
	snapshot.Uint(s, &e.nextPktID, &e.nextTxnID)
	e.coreMSHRs.state(s, func(s snapshot.State, t *txn) {
		snapshot.Uint(s, &t.id)
		snapshot.Int(s, &t.core, &t.home, &t.acksLeft)
		s.Bool(&t.dataSeen)
	})
	e.homeTBEs.state(s, func(s snapshot.State, h *homeEntry) {
		snapshot.Uint(s, &h.txnID)
		snapshot.Int(s, &h.core)
	})
	snapshot.Slice(s, &e.emitQ, math.MaxInt, "protocol emission queue", func(s snapshot.State, d *delayed) {
		s.Packet(&d.pkt)
		snapshot.Int(s, &d.at)
	})
	snapshot.Int(s, &e.Issued, &e.Completed, &e.Stalled)
	s.Pool(e.pool)
}

func init() {
	snapshot.Register("protocol.Engine", Engine{},
		[]string{"src", "pool", "nextPktID", "nextTxnID", "coreMSHRs",
			"homeTBEs", "emitQ", "Issued", "Completed", "Stalled"},
		[]string{"be", "profile", "rng"})
	snapshot.Register("protocol.table", table[txn]{},
		[]string{"slab", "count"}, []string{"per"})
	snapshot.Register("protocol.txn", txn{},
		[]string{"id", "core", "home", "acksLeft", "dataSeen"}, nil)
	snapshot.Register("protocol.homeEntry", homeEntry{},
		[]string{"txnID", "core"}, nil)
	snapshot.Register("protocol.delayed", delayed{},
		[]string{"pkt", "at"}, nil)
}

var _ snapshot.Stater = (*Engine)(nil)
