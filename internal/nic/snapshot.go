package nic

import (
	"math/bits"

	"repro/internal/message"
	"repro/internal/snapshot"
)

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly built NIC.
func (n *NIC) SnapshotState(w *snapshot.Writer) { n.state(w.State()) }
func (n *NIC) RestoreState(r *snapshot.Reader)  { n.state(r.State()) }

// state walks the NIC's mutable state: a mask of the classes holding any
// queued, assembling or counted state, then those classes only, then the
// mask of reserved classes and their reservations. A restore recounts
// queued and sourced from the rebuilt queues. Wiring (Inject, Consumer,
// Stall, ...) is re-established by the builder.
func (n *NIC) state(s snapshot.State) {
	snapshot.Int(s, &n.Enqueued)
	var live uint8
	for c := range n.source {
		if n.source[c].Len() > 0 || n.eject[c].Len() > 0 || n.pending[c] != 0 ||
			n.assembling[c] != nil || n.assembledFlits[c] != 0 || n.Consumed[c] != 0 {
			live |= 1 << c
		}
	}
	snapshot.Mask(s, &live, int(message.NumClasses), "nic class")
	for ; live != 0 && s.Err() == nil; live &= live - 1 {
		c := bits.TrailingZeros8(live)
		s.Queue(&n.source[c], &n.eject[c])
		if s.Decoding() {
			n.sourced += n.source[c].Len()
			n.queued += n.source[c].Len() + n.eject[c].Len()
		}
		snapshot.Int(s, &n.pending[c])
		s.Packet(&n.assembling[c])
		snapshot.Int(s, &n.assembledFlits[c])
		snapshot.Int(s, &n.Consumed[c])
	}
	snapshot.Mask(s, &n.reservedSet, int(message.NumClasses), "nic reservation")
	for m := n.reservedSet; m != 0 && s.Err() == nil; m &= m - 1 {
		snapshot.Uint(s, &n.reserved[bits.TrailingZeros8(m)])
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
