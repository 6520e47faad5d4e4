package snapshot

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/message"
	"repro/internal/ringq"
)

// State is one direction of a checkpoint walk. A checkpointed type states
// its wire format once, as a state(s State) method that hands every field
// to s by pointer: encoding writes the field, decoding overwrites it, so
// the two directions cannot drift apart. Work only a restore needs —
// recounts, wake-ups, range checks on decoded values — sits under
// s.Decoding(); the encode direction never writes simulator state.
type State struct {
	w *Writer
	r *Reader
}

// State returns the encode direction of a walk over w.
func (w *Writer) State() State { return State{w: w} }

// State returns the decode direction of a walk over r.
func (r *Reader) State() State { return State{r: r} }

// Decoding reports whether the walk is a restore.
func (s State) Decoding() bool { return s.r != nil }

// Err reports the first decode failure (always nil when encoding).
func (s State) Err() error {
	if s.r == nil {
		return nil
	}
	return s.r.err
}

// Fail records a decode failure found by a walk's own range check (a
// decoded value the live structure cannot hold). Only a decoding walk
// may call it.
func (s State) Fail(format string, args ...any) { s.r.fail(format, args...) }

// Walk hands a Stater the walk's direction.
func (s State) Walk(st Stater) {
	if s.r == nil {
		st.SnapshotState(s.w)
	} else {
		st.RestoreState(s.r)
	}
}

// integer is every integer kind a walk carries.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Int walks integers, in order, each a zigzag varint (Writer.I64).
// Decoding truncates to T, as a conversion would.
func Int[T integer](s State, vs ...*T) {
	if s.r == nil {
		buf := s.w.buf
		for _, v := range vs {
			buf = binary.AppendVarint(buf, int64(*v))
		}
		s.w.buf = buf
		return
	}
	for _, v := range vs {
		*v = T(s.r.I64())
	}
}

// Uint walks integers, in order, each a plain varint (Writer.U64).
func Uint[T integer](s State, vs ...*T) {
	for _, v := range vs {
		if s.r == nil {
			s.w.U64(uint64(*v))
		} else {
			*v = T(s.r.U64())
		}
	}
}

// Byte walks a one-byte value (Writer.U8).
func Byte[T ~uint8](s State, v *T) {
	if s.r == nil {
		s.w.U8(uint8(*v))
	} else {
		*v = T(s.r.U8())
	}
}

// Ints walks a fixed-length run of integers, each an Int: the per-node
// and per-port arrays, one call for the run.
func Ints[T integer](s State, vs []T) {
	if s.r == nil {
		buf := s.w.buf
		for _, v := range vs {
			buf = binary.AppendVarint(buf, int64(v))
		}
		s.w.buf = buf
		return
	}
	for i := range vs {
		vs[i] = T(s.r.I64())
	}
}

// Bool walks bools, in order, each one byte.
func (s State) Bool(vs ...*bool) {
	for _, v := range vs {
		if s.r == nil {
			s.w.Bool(*v)
		} else {
			*v = s.r.Bool()
		}
	}
}

// Mask walks a mask word (a Uint) whose set bits must name one of n
// VCs or classes: decoding fails, naming what, on a higher bit.
func Mask[T ~uint8 | ~uint64](s State, m *T, n int, what string) {
	if Uint(s, m); s.r != nil && uint64(*m)>>n != 0 {
		s.r.fail("%s mask %#x names a bit past %d", what, *m, n)
	}
}

// Present walks whether an optional section follows: encoding writes
// have and returns it; decoding returns what the blob recorded, for the
// caller to check against what the live structure has.
func (s State) Present(have bool) bool {
	s.Bool(&have)
	return have
}

// F64 walks a float64's bit pattern.
func (s State) F64(v *float64) {
	if s.r == nil {
		s.w.F64(*v)
	} else {
		*v = s.r.F64()
	}
}

// Str walks a length-prefixed string.
func (s State) Str(v *string) {
	if s.r == nil {
		s.w.Str(*v)
	} else {
		*v = s.r.Str()
	}
}

// Packet walks a packet reference (an index into the packet table).
func (s State) Packet(p **message.Packet) {
	if s.r == nil {
		s.w.Packet(*p)
	} else {
		*p = s.r.Packet()
	}
}

// Len walks the count of the elements that follow. Encoding writes n;
// decoding reads it and fails, naming what, unless it lies in [0, max]
// and within the bytes left (every element takes at least one), so a
// hostile count can neither index past a fixed structure nor make a
// restore allocate for elements the blob cannot hold. It returns the
// count to walk: n, or the decoded count (0 after a failure).
func (s State) Len(n, max int, what string) int {
	if s.r == nil {
		s.w.Int(n)
		return n
	}
	k := s.r.Int()
	if lim := min(max, len(s.r.data)-s.r.off); s.r.err == nil && (k < 0 || k > lim) {
		s.r.fail("%s %d outside [0, %d]", what, k, lim)
	}
	if s.r.err != nil {
		return 0
	}
	return k
}

// Slice walks a variable-length slice: its length (bounded as Len), then
// each element through elem. Decoding refills *xs in place, reusing its
// backing array, and stops at the first failure.
func Slice[T any](s State, xs *[]T, max int, what string, elem func(State, *T)) {
	n := s.Len(len(*xs), max, what)
	if s.r != nil {
		*xs = slices.Grow((*xs)[:0], n)[:n]
		clear(*xs)
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		elem(s, &(*xs)[i])
	}
}

// Packets walks a variable-length slice of packet references.
func Packets(s State, ps *[]*message.Packet, what string) {
	Slice(s, ps, math.MaxInt, what, func(s State, p **message.Packet) { s.Packet(p) })
}

// Ring walks a ring's occupancy and elements front to back. Head position
// and backing capacity are representation, not state: decoding rebuilds
// the same logical FIFO in q, emptied first.
func Ring[T any](s State, q *ringq.Ring[T], elem func(State, *T)) {
	for s.r != nil && q.Len() > 0 {
		q.PopFront()
	}
	n := s.Len(q.Len(), math.MaxInt, "ring occupancy")
	for i := 0; i < n && s.Err() == nil; i++ {
		if s.r != nil {
			q.PushBack(*new(T))
		}
		elem(s, q.Ptr(i))
	}
}

// Queue walks intrusive packet queues, in order, each exactly as Ring
// would a ring of the same packets: occupancy, then references oldest
// first. Decoding relinks the packets into each queue, emptied first; a
// blob that names no packet, or one already waiting in a queue, is
// corrupt.
func (s State) Queue(qs ...*message.Queue) {
	for _, q := range qs {
		if s.r == nil {
			s.w.Int(q.Len())
			for p := range q.All() {
				s.w.Packet(p)
			}
			continue
		}
		for q.Len() > 0 {
			q.PopFront()
		}
		n := s.Len(0, math.MaxInt, "queue occupancy")
		for i := 0; i < n && s.r.err == nil; i++ {
			if p := s.r.Packet(); p == nil || p.Queued() {
				s.r.fail("queue entry %d is nil or already queued", i)
			} else {
				q.PushBack(p)
			}
		}
	}
}

// Pool walks a packet arena: the free list (packet references, in
// release order) and the traffic counters. Decoding installs the list
// through SetFreeList, which re-arms the recycled poison marker on every
// pooled packet, so the use-after-free guard survives the process
// boundary; a list that names no packet is corrupt.
func (s State) Pool(pl *message.Pool) {
	free := pl.FreeList()
	if s.r != nil {
		free = nil
	}
	Slice(s, &free, math.MaxInt, "pool free list", func(s State, p **message.Packet) {
		if s.Packet(p); s.r != nil && *p == nil {
			s.r.fail("pool free list entry names no packet")
		}
	})
	if s.Err() == nil && s.r != nil {
		pl.SetFreeList(free)
	}
	Int(s, &pl.Gets, &pl.Puts, &pl.News)
}

// WritePool encodes a packet arena (State.Pool's encode direction).
func WritePool(w *Writer, pl *message.Pool) { w.State().Pool(pl) }

// ReadPool restores a packet arena (State.Pool's decode direction).
func ReadPool(r *Reader, pl *message.Pool) { r.State().Pool(pl) }

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
		// Queue membership: rebuilt by State.Queue's relinking.
		[]string{"next", "queued"})
	Register("message.Pool", message.Pool{},
		[]string{"free", "Gets", "Puts", "News"},
		[]string{"fresh", "chunks", "carved"}) // the chunks and the uncarved tail: capacity, not state
}
