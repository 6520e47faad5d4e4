package nic

import (
	"repro/internal/message"
	"repro/internal/snapshot"
)

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly built NIC.
func (n *NIC) SnapshotState(w *snapshot.Writer) { n.state(w.State()) }
func (n *NIC) RestoreState(r *snapshot.Reader)  { n.state(r.State()) }

// state walks the NIC's mutable state; a restore recounts queued and
// sourced from the rebuilt queues. Wiring (Inject, Consumer, Stall,
// ...) is re-established by the builder.
func (n *NIC) state(s snapshot.State) {
	snapshot.Int(s, &n.Enqueued)
	for c := range n.source {
		s.Queue(&n.source[c], &n.eject[c])
		if s.Decoding() {
			n.sourced += n.source[c].Len()
			n.queued += n.source[c].Len() + n.eject[c].Len()
		}
		// The reservation keeps the wire shape of the list it once was:
		// a count, then that many IDs.
		if s.Len(n.Reservations(message.Class(c)), 1, "nic reservations on one ejection queue") == 1 {
			snapshot.Uint(s, &n.reserved[c])
			if s.Decoding() {
				n.reservedSet |= 1 << c
			}
		}
		snapshot.Int(s, &n.pending[c])
		s.Packet(&n.assembling[c])
		snapshot.Int(s, &n.assembledFlits[c])
		snapshot.Int(s, &n.Consumed[c])
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
			"Node", "EjectCap", "Inject", "OnEject",
			"Recycle", "Waker", "Consumer", "Stall",
		})
}
