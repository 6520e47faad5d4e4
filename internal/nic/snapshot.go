package nic

import (
	"repro/internal/message"
	"repro/internal/snapshot"
)

// SnapshotState encodes the NIC's mutable state. Snapshots are taken at
// cycle boundaries, where the deferred OnEject ring is provably empty
// (FlushEjects runs before Step returns), so it is transient. Wiring
// (Inject, Consumer, Stall, ...) is re-established by the builder.
func (n *NIC) SnapshotState(w *snapshot.Writer) {
	w.I64(n.Enqueued)
	for c := range n.source {
		snapshot.WriteQueue(w, &n.source[c])
		snapshot.WriteQueue(w, &n.eject[c])
		// The reservation keeps the wire shape of the list it once was:
		// a count, then that many IDs.
		w.Int(n.Reservations(message.Class(c)))
		if n.Reservations(message.Class(c)) > 0 {
			w.U64(n.reserved[c])
		}
		w.Int(n.pending[c])
		w.Packet(n.assembling[c])
		w.Int(n.assembledFlits[c])
		w.I64(n.Consumed[c])
	}
}

// RestoreState decodes into a freshly built NIC.
func (n *NIC) RestoreState(r *snapshot.Reader) {
	n.Enqueued = r.I64()
	n.queued, n.sourced, n.reservedSet = 0, 0, 0
	for c := range n.source {
		snapshot.ReadQueue(r, &n.source[c])
		snapshot.ReadQueue(r, &n.eject[c])
		n.sourced += n.source[c].Len()
		n.queued += n.source[c].Len() + n.eject[c].Len()
		if held := r.Int(); held == 1 {
			n.reserved[c], n.reservedSet = r.U64(), n.reservedSet|1<<c
		} else if held != 0 {
			r.Fail("nic %d: %d reservations on one ejection queue", n.Node, held)
		}
		n.pending[c] = r.Int()
		n.assembling[c] = r.Packet()
		n.assembledFlits[c] = r.Int()
		n.Consumed[c] = r.I64()
	}
}

func init() {
	snapshot.Register("nic.NIC", NIC{},
		[]string{
			"Enqueued", "source", "eject", "reserved", "reservedSet",
			"pending", "assembling", "assembledFlits", "Consumed",
			// Recounted from the restored queues.
			"queued", "sourced",
		},
		[]string{
			// Configuration and wiring from New/the network builder.
			"Node", "EjectCap", "Inject", "OnEject", "DeferEject",
			"Recycle", "Waker", "Consumer", "Stall",
			// Empty at every cycle boundary: FlushEjects drains it
			// before Step returns.
			"deferred",
		})
}
