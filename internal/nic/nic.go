// Package nic implements the network interface controller of each node:
// per-class source queues feeding the router's injection buffers,
// per-class ejection queues with FastPass reservations (§III-C4, Qn 3/4),
// flit reassembly for regular ejections, and a pluggable consumer model
// standing in for the processor/cache controller.
//
// The source and ejection queues own no memory: they are intrusive FIFOs
// threaded through the packets themselves (message.Queue), so enqueue,
// dequeue and the MSHR re-issue prepend are O(1) and never allocate at
// any depth. That works because a packet waits in at most one NIC queue
// at a time (DESIGN.md §9), which the queues enforce.
package nic

import (
	"fmt"
	"iter"

	"repro/internal/message"
)

// Waker is the active-set scheduler as a NIC sees it: WakeNIC is called
// on every enqueue and deduplicated by the listener. An interface rather
// than a func field so wiring a network's NICs costs no per-node closure.
type Waker interface {
	WakeNIC(node int)
}

// Consumer models the processor side draining ejection queues. For
// synthetic traffic it consumes immediately; the protocol engine
// implements stall behaviour (a core that won't take requests while it
// awaits a response) to create protocol-level deadlock pressure.
type Consumer interface {
	// TryConsume is offered the head packet of an ejection queue and
	// reports whether it was consumed this cycle.
	TryConsume(cycle int64, pkt *message.Packet) bool
}

// ConsumeFunc adapts a function to the Consumer interface.
type ConsumeFunc func(cycle int64, pkt *message.Packet) bool

// TryConsume implements Consumer.
func (f ConsumeFunc) TryConsume(cycle int64, pkt *message.Packet) bool { return f(cycle, pkt) }

// ImmediateConsumer always consumes (ejection queues drain every cycle),
// matching the paper's observation that ejected packets are consumed
// almost immediately under synthetic traffic.
var ImmediateConsumer Consumer = ConsumeFunc(func(int64, *message.Packet) bool { return true })

// NIC is one node's network interface.
type NIC struct {
	Node int

	// EjectCap is the per-class ejection queue capacity in packets.
	EjectCap int

	// Inject pushes a packet into the router's injection queue for its
	// class, reporting false when full; wired by the network builder.
	Inject func(pkt *message.Packet) bool

	// OnEject, when set, observes every packet leaving the network.
	OnEject func(pkt *message.Packet)

	// Recycle, when set, receives every packet the consumer has drained
	// — its last observable moment: OnEject fired when it landed in the
	// queue and a consumer must not keep the pointer. The arena's owner
	// (sim.Instance.UsePool for synthetic traffic, protocol.New for
	// coherence traffic) wires this to its message.Pool. A refused
	// packet stays queued and is not released.
	Recycle func(pkt *message.Packet)

	// Waker, when set, is told whenever the NIC acquires work (a source
	// or ejection enqueue). The network's active-set scheduler uses it to
	// stop ticking idle NICs.
	Waker Waker

	// Consumer drains ejection queues; defaults to ImmediateConsumer.
	Consumer Consumer

	// Stall, when set and returning true for (Node, cycle), freezes the
	// consumer side of the NIC: ejection queues are not drained, though
	// injection proceeds. Fault injection shares one across all NICs to
	// model a wedged processor without replacing Consumer (the protocol
	// engine installs itself there and must keep observing packets once
	// the stall lifts).
	Stall func(node int, cycle int64) bool

	// Enqueued counts packets ever handed to this NIC through
	// EnqueueSource — the injection side of the packet-conservation
	// ledger (Enqueued == Consumed + in-flight, checked by the
	// invariant watchdogs). Front re-queues are not new packets and do
	// not count.
	Enqueued int64

	source [message.NumClasses]message.Queue
	eject  [message.NumClasses]message.Queue
	// queued counts the packets in source and eject together, sourced
	// those in source alone, so Idle and TotalSourceDepth are one load.
	queued, sourced int
	// reserved[c] is the ID of the FastPass packet holding class c's one
	// ejection reservation (Qn 3) while bit c of reservedSet is up.
	reserved    [message.NumClasses]uint64
	reservedSet uint8
	// pending counts regular packets mid-ejection (BeginEject'd but not
	// yet fully reassembled) per class.
	pending [message.NumClasses]int
	// assembling is the regular packet currently streaming out of the
	// router per class, with the flit count received.
	assembling     [message.NumClasses]*message.Packet
	assembledFlits [message.NumClasses]int

	// Consumed counts packets drained by the consumer, per class.
	Consumed [message.NumClasses]int64
}

// New constructs a NIC with the given per-class ejection capacity.
func New(node, ejectCap int) *NIC {
	if ejectCap < 1 {
		panic("nic: ejection capacity must be positive")
	}
	return &NIC{Node: node, EjectCap: ejectCap, Consumer: ImmediateConsumer}
}

// NewAll constructs the NICs of nodes 0..nodes-1 in one backing array.
func NewAll(nodes, ejectCap int) []*NIC {
	slab := make([]NIC, nodes)
	nics := make([]*NIC, nodes)
	for id := range slab {
		slab[id] = *New(id, ejectCap)
		nics[id] = &slab[id]
	}
	return nics
}

// wake signals the active-set listener, if any.
func (n *NIC) wake() {
	if n.Waker != nil {
		n.Waker.WakeNIC(n.Node)
	}
}

// Idle reports whether Tick would be a no-op: nothing queued at the
// source and nothing awaiting consumption. Mid-ejection reassembly state
// (pending/assembling) is driven by the router, not by Tick, so it does
// not keep a NIC active.
func (n *NIC) Idle() bool { return n.queued == 0 }

// EnqueueSource appends a freshly generated packet to the class source
// queue (unbounded: models the processor-side request stream; the
// injection *buffers* in the router are the finite resource).
func (n *NIC) EnqueueSource(pkt *message.Packet) {
	n.source[pkt.Class].PushBack(pkt)
	n.queued++
	n.sourced++
	n.Enqueued++
	n.wake()
}

// EnqueueSourceFront re-queues a packet at the front of its class source
// queue: the MSHR regenerating a dropped injection request re-issues it
// ahead of younger traffic.
func (n *NIC) EnqueueSourceFront(pkt *message.Packet) {
	n.source[pkt.Class].PushFront(pkt)
	n.queued++
	n.sourced++
	n.wake()
}

// TotalSourceDepth reports queued packets across classes.
func (n *NIC) TotalSourceDepth() int { return n.sourced }

// TickConsume drains the ejection queues through the consumer, the
// first half of a NIC's cycle; TickInject is the second. The network
// steps the halves as separate phases (all consumes, then all
// injects).
func (n *NIC) TickConsume(cycle int64) {
	if n.Stall != nil && n.Stall(n.Node, cycle) {
		return
	}
	for c := range n.eject {
		for n.eject[c].Len() > 0 {
			head := n.eject[c].Front()
			if !n.Consumer.TryConsume(cycle, head) {
				break
			}
			n.eject[c].PopFront()
			n.queued--
			n.Consumed[c]++
			if n.Recycle != nil {
				n.Recycle(head)
			}
		}
	}
}

// TickInject moves source packets into the router injection queues.
func (n *NIC) TickInject(cycle int64) {
	for c := range n.source {
		for n.source[c].Len() > 0 {
			if !n.Inject(n.source[c].Front()) {
				break
			}
			n.source[c].PopFront()
			n.queued--
			n.sourced--
		}
	}
}

// freeSlots is the raw free space of the class ejection queue, counting
// in-flight regular ejections as occupied.
func (n *NIC) freeSlots(c message.Class) int {
	return n.EjectCap - n.eject[c].Len() - n.pending[c]
}

// CanEject reports whether a packet may (begin to) eject into its class
// queue. A reserved slot is held for its FastPass packet: the holder
// needs one free slot; everyone else must additionally leave the
// reserved slot untouched ("not until the rejected FastPass-Packet
// resides in the intended ejection queue are other packets allowed to
// use it").
func (n *NIC) CanEject(pkt *message.Packet) bool {
	if n.HasReservation(pkt) {
		return n.freeSlots(pkt.Class) >= 1
	}
	return n.freeSlots(pkt.Class) >= n.Reservations(pkt.Class)+1
}

// TryReserve grants pkt the class queue's single reservation if none is
// outstanding, and reports whether pkt now holds it. The paper reserves
// each ejection queue for *the* rejected FastPass-Packet ("the queue is
// reserved for A", Fig. 3); allowing a backlog of reservations would let
// a packet whose turn can never come monopolise its prime's lane — so
// later rejected packets simply retry until the reservation frees.
func (n *NIC) TryReserve(pkt *message.Packet) bool {
	if n.Reservations(pkt.Class) > 0 {
		return n.HasReservation(pkt)
	}
	n.reserved[pkt.Class] = pkt.ID
	n.reservedSet |= 1 << pkt.Class
	return true
}

// HasReservation reports whether pkt holds a reservation.
func (n *NIC) HasReservation(pkt *message.Packet) bool {
	return n.reservedSet&(1<<pkt.Class) != 0 && n.reserved[pkt.Class] == pkt.ID
}

// Reservations reports the outstanding reservations of a class: 0 or 1.
func (n *NIC) Reservations(c message.Class) int { return int(n.reservedSet >> c & 1) }

// BeginEject reserves space for a regular packet about to stream out of
// the router's Local port; CanEject must have been consulted first.
func (n *NIC) BeginEject(pkt *message.Packet) { n.pending[pkt.Class]++ }

// CancelEject releases a BeginEject claim (the router force-removed the
// packet before completion).
func (n *NIC) CancelEject(pkt *message.Packet) {
	if n.pending[pkt.Class] == 0 {
		panic(fmt.Sprintf("nic %d: CancelEject with no pending ejection (%s)", n.Node, pkt))
	}
	n.pending[pkt.Class]--
	if n.assembling[pkt.Class] == pkt {
		n.assembling[pkt.Class] = nil
		n.assembledFlits[pkt.Class] = 0
	}
}

// EjectFlit receives one flit of a regular ejection. When the packet
// completes it lands in the class queue.
func (n *NIC) EjectFlit(cycle int64, f message.Flit) {
	c := f.Pkt.Class
	if n.assembling[c] == nil {
		if !f.IsHead() {
			panic(fmt.Sprintf("nic %d: body flit with no assembly (%s)", n.Node, f.Pkt))
		}
		n.assembling[c] = f.Pkt
		n.assembledFlits[c] = 0
	}
	if n.assembling[c] != f.Pkt {
		panic(fmt.Sprintf("nic %d: interleaved ejection of %s into %s", n.Node, f.Pkt, n.assembling[c]))
	}
	n.assembledFlits[c]++
	if n.assembledFlits[c] == f.Pkt.Len {
		n.assembling[c] = nil
		n.assembledFlits[c] = 0
		n.pending[c]--
		n.finish(cycle, f.Pkt)
	}
}

// EjectFast lands a whole FastPass packet in its class queue (the lane
// controller has streamed its flits through the claimed ejection port).
// Any reservation it held is released. CanEject must hold.
func (n *NIC) EjectFast(cycle int64, pkt *message.Packet) {
	if n.HasReservation(pkt) {
		n.reservedSet &^= 1 << pkt.Class
	}
	n.finish(cycle, pkt)
}

func (n *NIC) finish(cycle int64, pkt *message.Packet) {
	if n.eject[pkt.Class].Len() >= n.EjectCap {
		panic(fmt.Sprintf("nic %d: ejection queue overflow (%s)", n.Node, pkt))
	}
	pkt.EjectTime = cycle
	n.eject[pkt.Class].PushBack(pkt)
	n.queued++
	n.wake()
	if n.OnEject != nil {
		n.OnEject(pkt)
	}
}

// Quiescent reports an error if the NIC still holds work: packets queued
// at the source, awaiting consumption, mid-reassembly or mid-ejection,
// or an outstanding FastPass reservation. VerifyQuiescent audits every NIC with it — a
// packet leaked into a NIC ring is as much a conservation bug as one
// leaked into a router buffer.
func (n *NIC) Quiescent() error {
	for c := range n.source {
		if l := n.source[c].Len(); l > 0 {
			return fmt.Errorf("nic %d: %d packets still queued at source (class %d)", n.Node, l, c)
		}
		if l := n.eject[c].Len(); l > 0 {
			return fmt.Errorf("nic %d: %d packets still awaiting consumption (class %d)", n.Node, l, c)
		}
		if l := n.Reservations(message.Class(c)); l > 0 {
			return fmt.Errorf("nic %d: %d ejection reservations still held (class %d)", n.Node, l, c)
		}
		if n.pending[c] != 0 {
			return fmt.Errorf("nic %d: %d ejections still pending (class %d)", n.Node, n.pending[c], c)
		}
		if n.assembling[c] != nil {
			return fmt.Errorf("nic %d: packet %s still mid-reassembly (class %d)", n.Node, n.assembling[c], c)
		}
	}
	if n.queued != 0 || n.sourced != 0 {
		return fmt.Errorf("nic %d: empty queues but occupancy counters read %d queued, %d at source", n.Node, n.queued, n.sourced)
	}
	return nil
}

// ForEachResident visits every packet the NIC currently holds: queued
// at the source, awaiting consumption in an ejection queue, or mid
// reassembly. The conservation watchdog uses it to account for packets
// that exist but are in neither a router nor a link pipeline.
func (n *NIC) ForEachResident(f func(*message.Packet)) {
	for c := range n.source {
		for p := range n.source[c].All() {
			f(p)
		}
	}
	for c := range n.eject {
		for p := range n.eject[c].All() {
			f(p)
		}
	}
	for c := range n.assembling {
		if n.assembling[c] != nil {
			f(n.assembling[c])
		}
	}
}

// EjectDepth reports the occupancy of a class ejection queue.
func (n *NIC) EjectDepth(c message.Class) int { return n.eject[c].Len() }

// PeekEject returns the head of the class ejection queue without
// consuming it (protocol engine inspection).
func (n *NIC) PeekEject(c message.Class) *message.Packet { return n.eject[c].Front() }

// Ejected iterates a class ejection queue head first (watchdog
// starvation reports).
func (n *NIC) Ejected(c message.Class) iter.Seq[*message.Packet] { return n.eject[c].All() }
