package minbd

import (
	"math"
	"sort"

	"repro/internal/message"
	"repro/internal/snapshot"
)

func flit(s snapshot.State, f *message.Flit) {
	s.Packet(&f.Pkt)
	snapshot.Int(s, &f.Seq)
}

// rxEntry is one reassembly-table row as the checkpoint carries it.
type rxEntry struct {
	id    uint64
	flits int
}

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly built Network (wiring from New, mutable state from the
// checkpoint).
func (n *Network) SnapshotState(w *snapshot.Writer) { n.state(w.State()) }
func (n *Network) RestoreState(r *snapshot.Reader)  { n.state(r.State()) }

// state walks the deflection network's mutable state: the three
// pipeline register banks (nil-Pkt = empty, walked verbatim), side
// buffers, source FIFOs with the partial-injection cursor, the
// reassembly table (sorted by packet ID — map iteration order must not
// leak into the byte stream), the cycle and the counters.
func (n *Network) state(s snapshot.State) {
	snapshot.Int(s, &n.cycle)
	for _, regs := range [][]message.Flit{n.cur, n.mid, n.next} {
		for i := range regs {
			flit(s, &regs[i])
		}
	}
	for node := range n.side {
		snapshot.Ring(s, &n.side[node], flit)
	}
	for node := range n.source {
		s.Queue(&n.source[node])
	}
	snapshot.Ints(s, n.injSeq)
	var rx []rxEntry
	if !s.Decoding() {
		rx = make([]rxEntry, 0, len(n.rx))
		for id, flits := range n.rx {
			rx = append(rx, rxEntry{id, flits})
		}
		sort.Slice(rx, func(i, j int) bool { return rx[i].id < rx[j].id })
	}
	snapshot.Slice(s, &rx, math.MaxInt, "minbd reassembly entries", func(s snapshot.State, e *rxEntry) {
		snapshot.Uint(s, &e.id)
		snapshot.Int(s, &e.flits)
	})
	if s.Decoding() {
		clear(n.rx)
		for _, e := range rx {
			n.rx[e.id] = e.flits
		}
	}
	snapshot.Int(s, &n.Deflections, &n.SideBuffered, &n.Ejections)
	snapshot.Int(s, &n.resident)
}

func init() {
	snapshot.Register("minbd.Network", Network{},
		[]string{"cur", "mid", "next", "side", "source", "injSeq", "rx",
			"cycle", "Deflections", "SideBuffered", "Ejections", "resident"},
		[]string{"Mesh", "prm", "regs", "sideSlab", "inLinks", "outLinks", "OnEject", "Recycle"})
}

var _ snapshot.Stater = (*Network)(nil)
