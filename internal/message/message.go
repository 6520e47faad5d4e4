// Package message defines the units of transfer in the NoC: packets and
// flits, plus the coherence message classes that drive virtual-network
// sizing and protocol-level deadlock behaviour.
//
// The paper evaluates against the MOESI Hammer protocol, which requires
// six message classes (hence the baselines' six virtual networks). We
// model the same six classes; the exact protocol semantics live in
// internal/protocol, but class identity — in particular which classes
// are "sinks" that a node can always consume — is a property of the
// message itself, so it lives here.
package message

import "fmt"

// Class identifies the coherence message class of a packet. Baseline
// schemes map each class to its own virtual network; FastPass and
// Pitstop carry all classes in a single shared network and only separate
// them in per-class injection and ejection queues.
type Class uint8

// The six MOESI-Hammer-like message classes.
const (
	Request    Class = iota // core → home: GetS/GetM
	Forward                 // home → owner: forwarded request
	Invalidate              // home → sharers: invalidations
	WriteBack               // owner → home: dirty data writeback
	Response                // data/ack back to the requester (sink)
	Unblock                 // requester → home: transaction complete (sink)
	NumClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Request:
		return "Request"
	case Forward:
		return "Forward"
	case Invalidate:
		return "Invalidate"
	case WriteBack:
		return "WriteBack"
	case Response:
		return "Response"
	case Unblock:
		return "Unblock"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Kind distinguishes how a packet is currently being carried.
type Kind uint8

// Packet carriage kinds (Fig. 13's breakdown).
const (
	Regular  Kind = iota // credit-based regular pass
	FastPass             // promoted, traversing a FastPass-Lane bufferlessly
)

// Packet is the unit of routing and buffering. Flow control is virtual
// cut-through with a single packet per VC, so a packet is always wholly
// resident in one buffer (or in flight on a lane/link pipeline).
type Packet struct {
	// ID is unique within a simulation.
	ID uint64
	// Src and Dst are node IDs.
	Src, Dst int
	// Len is the packet length in flits (the paper mixes 1-flit control
	// and 5-flit data packets).
	Len int

	// TxnID ties the packet to a protocol transaction (0 for synthetic
	// traffic).
	TxnID uint64

	// CreateTime is the cycle the source enqueued the packet at its NIC;
	// InjectTime the cycle its head flit entered the router; EjectTime
	// the cycle its tail left the network at the destination NIC.
	// Latency figures use CreateTime→EjectTime (queueing included),
	// matching Garnet's packet latency.
	CreateTime, InjectTime, EjectTime int64

	// RegularCycles and FastCycles split network residency into buffered
	// (regular pass) time and bufferless (lane) time for Fig. 9.
	RegularCycles, FastCycles int64

	// Dropped counts how many times this packet was dropped at its
	// source by the dynamic-bubble mechanism (it is regenerated from the
	// MSHR each time).
	Dropped int

	// Hops counts link traversals, for sanity checks on minimal routing.
	Hops int

	// next links the packet into the Queue it currently waits in (see
	// Queue: a packet is in at most one at a time).
	next *Packet

	// The one-byte fields sit together so they share a word: the struct
	// is 112 bytes, and the arena is most of a run's memory.

	// Class is the coherence message class.
	Class Class

	// Kind says how the packet most recently travelled; a packet that
	// was promoted mid-journey counts as a FastPass packet in Fig. 13.
	Kind Kind

	// Rejected marks a FastPass packet that faced a full ejection queue
	// and returned to its prime router. Rejected packets are never
	// dropped by the dynamic bubble (Qn 2).
	Rejected bool

	// Corrupted marks a packet whose payload checksum failed at
	// delivery (fault injection flipped a bit on a link). The packet
	// still arrives — detection, not correction — and resilience
	// experiments count it as a detected-corrupt delivery.
	Corrupted bool

	// recycled marks a packet currently resting in a Pool's free list.
	// It exists purely as the arena's use-after-free guard: PutCtx sets it,
	// Get clears it, and both panic when the marker contradicts them.
	recycled bool

	// queued marks a packet currently linked into a Queue: pushing it
	// onto a second queue, or releasing it to a Pool, panics.
	queued bool
}

// NewPacket constructs a packet created at the given cycle, with
// injection and ejection times unset (-1).
func NewPacket(id uint64, src, dst int, class Class, flits int, cycle int64) *Packet {
	return new(Packet).init(id, src, dst, class, flits, cycle) //nocvet:ignore hotalloc2 the pool-less constructor: per-cycle callers draw from a Pool
}

// init overwrites p with a packet created at the given cycle.
func (p *Packet) init(id uint64, src, dst int, class Class, flits int, cycle int64) *Packet {
	if flits < 1 {
		panic(fmt.Sprintf("message: packet %d with %d flits", id, flits))
	}
	*p = Packet{
		ID: id, Src: src, Dst: dst, Class: class, Len: flits,
		CreateTime: cycle, InjectTime: -1, EjectTime: -1,
	}
	return p
}

// Flit is one link-width slice of a packet. Seq 0 is the head flit; the
// flit with Seq == Len-1 is the tail (a 1-flit packet's head is also its
// tail).
type Flit struct {
	Pkt *Packet
	Seq int
}

// IsHead reports whether f is its packet's head flit.
func (f Flit) IsHead() bool { return f.Seq == 0 }

// IsTail reports whether f is its packet's tail flit.
func (f Flit) IsTail() bool { return f.Seq == f.Pkt.Len-1 }

// FlitPayload derives the deterministic payload word carried by flit
// seq of packet id. The simulator doesn't move real data, so the wire
// payload is a pure function of identity — which is exactly what lets
// the receiver recompute it and a checksum mismatch prove in-flight
// corruption. The mixer is splitmix64: every (id, seq) maps to a
// well-spread 64-bit word.
func FlitPayload(id uint64, seq int) uint64 {
	x := id + uint64(seq)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Checksum is the 8-bit XOR fold of a payload word. Each payload bit
// feeds exactly one checksum bit, so any single-bit flip — the fault
// model's corruption unit — is always detected.
func Checksum(payload uint64) uint8 {
	payload ^= payload >> 32
	payload ^= payload >> 16
	payload ^= payload >> 8
	return uint8(payload)
}

// Latency returns the total packet latency in cycles (creation at the
// source NIC to ejection at the destination NIC). It panics if the
// packet has not been ejected.
func (p *Packet) Latency() int64 {
	if p.EjectTime < p.CreateTime {
		panic(fmt.Sprintf("message: latency of un-ejected packet %d", p.ID))
	}
	return p.EjectTime - p.CreateTime
}

// String summarises the packet for logs and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d %s %d->%d len %d", p.ID, p.Class, p.Src, p.Dst, p.Len)
}
