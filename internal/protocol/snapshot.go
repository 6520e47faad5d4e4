package protocol

import "repro/internal/snapshot"

// snapshotState writes every node's live entries in slot order.
func (t *table[T]) snapshotState(w *snapshot.Writer, enc func(*snapshot.Writer, T)) {
	for node, k := range t.count {
		w.Int(k)
		for _, e := range t.live(node) {
			enc(w, e)
		}
	}
}

// restoreState refills every node's window in the encoded slot order.
func (t *table[T]) restoreState(r *snapshot.Reader, dec func(*snapshot.Reader) T) {
	for node := range t.count {
		k := r.Int()
		if r.Err() == nil && (k < 0 || k > t.per) {
			r.Fail("protocol table: %d entries at node %d exceed capacity %d", k, node, t.per)
		}
		t.count[node] = 0
		for i := 0; i < k && r.Err() == nil; i++ {
			t.add(node, dec(r))
		}
	}
}

// SnapshotState encodes the engine's mutable state: RNG stream
// position, ID counters, per-core MSHR tables and per-home TBE tables
// (slot order — the tables hold no map, so there is no iteration order
// to leak), the delayed-emission queue, the transaction counters and,
// last, the packet arena (every live packet is registered by then, so
// the free list only adds the recycled ones).
func (e *Engine) SnapshotState(w *snapshot.Writer) {
	w.U64(e.src.Draws())
	w.U64(e.nextPktID)
	w.U64(e.nextTxnID)
	e.coreMSHRs.snapshotState(w, func(w *snapshot.Writer, t txn) {
		w.U64(t.id)
		w.Int(t.core)
		w.Int(t.home)
		w.Int(t.acksLeft)
		w.Bool(t.dataSeen)
	})
	e.homeTBEs.snapshotState(w, func(w *snapshot.Writer, h homeEntry) {
		w.U64(h.txnID)
		w.Int(h.core)
	})
	w.Int(len(e.emitQ))
	for _, d := range e.emitQ {
		w.Packet(d.pkt)
		w.I64(d.at)
	}
	w.I64(e.Issued)
	w.I64(e.Completed)
	w.I64(e.Stalled)
	snapshot.WritePool(w, e.pool)
}

// RestoreState decodes into a freshly constructed engine (wiring and
// consumers from New, mutable state from the checkpoint). The RNG is
// re-positioned by replaying the recorded number of source draws.
func (e *Engine) RestoreState(r *snapshot.Reader) {
	e.src.Skip(r.U64())
	e.nextPktID = r.U64()
	e.nextTxnID = r.U64()
	e.coreMSHRs.restoreState(r, func(r *snapshot.Reader) txn {
		return txn{id: r.U64(), core: r.Int(), home: r.Int(), acksLeft: r.Int(), dataSeen: r.Bool()}
	})
	e.homeTBEs.restoreState(r, func(r *snapshot.Reader) homeEntry {
		return homeEntry{txnID: r.U64(), core: r.Int()}
	})
	e.emitQ = e.emitQ[:0]
	k := r.Int()
	for i := 0; i < k && r.Err() == nil; i++ {
		e.emitQ = append(e.emitQ, delayed{pkt: r.Packet(), at: r.I64()})
	}
	e.Issued = r.I64()
	e.Completed = r.I64()
	e.Stalled = r.I64()
	snapshot.ReadPool(r, e.pool)
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
