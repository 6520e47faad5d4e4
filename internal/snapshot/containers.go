package snapshot

import (
	"repro/internal/message"
	"repro/internal/ringq"
)

// WriteRing encodes a ring's occupancy and elements front-to-back.
// Head position and backing capacity are representation, not state —
// restore rebuilds the same logical FIFO in a fresh ring.
func WriteRing[T any](w *Writer, q *ringq.Ring[T], enc func(*Writer, T)) {
	w.Int(q.Len())
	for i := 0; i < q.Len(); i++ {
		enc(w, q.At(i))
	}
}

// ReadRing empties q and refills it from the stream.
func ReadRing[T any](r *Reader, q *ringq.Ring[T], dec func(*Reader) T) {
	for q.Len() > 0 {
		q.PopFront()
	}
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		q.PushBack(dec(r))
	}
}

// WriteQueue encodes an intrusive packet queue exactly as WriteRing
// would a ring of the same packets: occupancy, then references oldest
// first.
func WriteQueue(w *Writer, q *message.Queue) {
	w.Int(q.Len())
	for p := range q.All() {
		w.Packet(p)
	}
}

// ReadQueue empties q and refills it from the stream, relinking the
// packets. A blob that names no packet, or one already waiting in a
// queue, is corrupt.
func ReadQueue(r *Reader, q *message.Queue) {
	for q.Len() > 0 {
		q.PopFront()
	}
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		if p := r.Packet(); p == nil || p.Queued() {
			r.fail("queue entry %d is nil or already queued", i)
		} else {
			q.PushBack(p)
		}
	}
}

// WritePool encodes a packet arena: the free list (as packet
// references, preserving release order) and the traffic counters.
func WritePool(w *Writer, pl *message.Pool) {
	fl := pl.FreeList()
	w.Int(len(fl))
	for _, p := range fl {
		w.Packet(p)
	}
	w.I64(pl.Gets)
	w.I64(pl.Puts)
	w.I64(pl.News)
}

// ReadPool restores a packet arena. SetFreeList re-arms the recycled
// poison marker on every pooled packet, so the use-after-free guard
// survives the process boundary.
func ReadPool(r *Reader, pl *message.Pool) {
	n := r.Int()
	ps := make([]*message.Packet, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		ps = append(ps, r.Packet())
	}
	pl.SetFreeList(ps)
	pl.Gets = r.I64()
	pl.Puts = r.I64()
	pl.News = r.I64()
}

func init() {
	Register("message.Packet", message.Packet{},
		[]string{
			"ID", "Src", "Dst", "Class", "Len", "TxnID",
			"CreateTime", "InjectTime", "EjectTime", "Kind",
			"RegularCycles", "FastCycles", "Dropped", "Rejected",
			"Hops", "Corrupted",
			// recycled is reconstructed from free-list membership:
			// Pool.SetFreeList re-poisons exactly the pooled packets.
			"recycled",
		},
		// Queue membership: rebuilt by ReadQueue's relinking.
		[]string{"next", "queued"})
	Register("message.Pool", message.Pool{},
		[]string{"free", "Gets", "Puts", "News"},
		[]string{"fresh"}) // uncarved chunk tail: capacity, not state
}
