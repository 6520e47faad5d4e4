package minbd

import (
	"sort"

	"repro/internal/message"
	"repro/internal/snapshot"
)

func writeFlit(w *snapshot.Writer, f message.Flit) {
	w.Packet(f.Pkt)
	w.Int(f.Seq)
}

func readFlit(r *snapshot.Reader) message.Flit {
	return message.Flit{Pkt: r.Packet(), Seq: r.Int()}
}

func writeRegs(w *snapshot.Writer, regs []message.Flit) {
	for _, f := range regs {
		writeFlit(w, f)
	}
}

func readRegs(r *snapshot.Reader, regs []message.Flit) {
	for i := range regs {
		regs[i] = readFlit(r)
	}
}

// SnapshotState encodes the deflection network's mutable state: the
// three pipeline register banks (nil-Pkt = empty, encoded verbatim),
// side buffers, source FIFOs with the partial-injection cursor, the
// reassembly table (sorted by packet ID — map iteration order must not
// leak into the byte stream), the cycle and the counters.
func (n *Network) SnapshotState(w *snapshot.Writer) {
	w.I64(n.cycle)
	writeRegs(w, n.cur)
	writeRegs(w, n.mid)
	writeRegs(w, n.next)
	for node := range n.side {
		snapshot.WriteRing(w, &n.side[node], writeFlit)
	}
	for node := range n.source {
		snapshot.WriteQueue(w, &n.source[node])
	}
	for _, s := range n.injSeq {
		w.Int(s)
	}
	ids := make([]uint64, 0, len(n.rx))
	for id := range n.rx {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Int(len(ids))
	for _, id := range ids {
		w.U64(id)
		w.Int(n.rx[id])
	}
	w.I64(n.Deflections)
	w.I64(n.SideBuffered)
	w.I64(n.Ejections)
	w.Int(n.resident)
}

// RestoreState decodes into a freshly built Network (wiring from New,
// mutable state from the checkpoint).
func (n *Network) RestoreState(r *snapshot.Reader) {
	n.cycle = r.I64()
	readRegs(r, n.cur)
	readRegs(r, n.mid)
	readRegs(r, n.next)
	for node := range n.side {
		snapshot.ReadRing(r, &n.side[node], readFlit)
	}
	for node := range n.source {
		snapshot.ReadQueue(r, &n.source[node])
	}
	for i := range n.injSeq {
		n.injSeq[i] = r.Int()
	}
	clear(n.rx)
	k := r.Int()
	for i := 0; i < k && r.Err() == nil; i++ {
		id := r.U64()
		n.rx[id] = r.Int()
	}
	n.Deflections = r.I64()
	n.SideBuffered = r.I64()
	n.Ejections = r.I64()
	n.resident = r.Int()
}

func init() {
	snapshot.Register("minbd.Network", Network{},
		[]string{"cur", "mid", "next", "side", "source", "injSeq", "rx",
			"cycle", "Deflections", "SideBuffered", "Ejections", "resident"},
		[]string{"Mesh", "prm", "inLinks", "outLinks", "OnEject", "Recycle"})
}

var _ snapshot.Stater = (*Network)(nil)
