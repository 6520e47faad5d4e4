// Package router implements the input-buffered virtual-channel router
// shared by FastPass and every baseline scheme: per-port input units
// with virtual channels, virtual cut-through flow control (single packet
// per network VC, Table II), separable round-robin VC and switch
// allocation, and credit signalling back to upstream routers.
//
// Scheme-specific behaviour is injected from outside: routing algorithms
// per VC index (escape channels), link/ejection claims made by bypass
// controllers (FastPass lanes, Pitstop), and forced packet moves
// (SPIN/SWAP/DRAIN) through the explicit buffer-manipulation API.
package router

import (
	"fmt"

	"repro/internal/message"
	"repro/internal/ringq"
	"repro/internal/topology"
)

// Entry is one packet resident in (or streaming through) a virtual
// channel. It is 32 bytes — flit counts and VC indices fit 16 bits, a
// port 8 — so an injection queue's first window is 128 (see VC).
type Entry struct {
	Pkt *message.Packet
	// EnqueueCycle is when the head flit entered this buffer, and
	// LastMove the last cycle any flit of this packet advanced; the
	// difference while parked at the front of the VC is the blocked
	// time used by SPIN's detection threshold and SWAP's duty checks.
	EnqueueCycle, LastMove int64
	// Arrived counts flits of the packet that have been written into
	// this buffer; Sent counts flits forwarded out. Cut-through allows
	// Sent to trail Arrived before the tail lands.
	Arrived, Sent int16
	// Allocated reports whether the head flit has been granted an
	// output VC; OutPort (a topology.Direction) and OutVC are valid
	// once it is.
	OutVC     int16
	OutPort   int8
	Allocated bool
}

// FullyBuffered reports whether every flit of the packet is resident and
// none have departed — the state in which forced moves (SWAP, SPIN,
// DRAIN) may relocate the packet atomically.
func (e *Entry) FullyBuffered() bool {
	return int(e.Arrived) == e.Pkt.Len && e.Sent == 0
}

// Out returns the output port the entry was allocated.
func (e *Entry) Out() topology.Direction { return topology.Direction(e.OutPort) }

// Allocate records the head flit's grant of (port, vc).
func (e *Entry) Allocate(port topology.Direction, vc int) {
	e.Allocated, e.OutPort, e.OutVC = true, int8(port), int16(vc)
}

// VC is a virtual-channel buffer. Network VCs hold at most one packet
// (virtual cut-through, single packet per VC); injection-queue VCs hold
// a FIFO of whole packets bounded by flit capacity.
//
// Entries live by value in a ring buffer, so traffic through a VC never
// touches the allocator: in a router built by New a network VC adopts its
// inline slot (one entry, beside the ring), and an injection queue takes
// an injWindow-entry window from the slab's overflow chunks at its first
// packet and a doubled one each time it outgrows it — a build carves no
// entry for a class its run never injects. An entry
// pointer handed out by Head/EntryAt is valid until the VC's next
// insertion or removal; a departed entry's slot is zeroed, turning any
// stale-pointer use into an immediate nil dereference of Pkt rather than
// silent corruption.
type VC struct {
	entries ringq.Ring[Entry]
	one     [1]Entry
	// owner, when set, is the router whose input (port, idx) this VC is:
	// the VC keeps that router's resident-packet count and occupancy and
	// ready masks in sync on every insert, remove and flit, so they stay
	// right even when controllers manipulate VCs directly.
	owner *Router
	// CapFlits bounds total buffered flits; MaxPkts bounds the packet
	// FIFO depth (1 for network VCs).
	CapFlits, MaxPkts int32
	flits             int32
	// route caches the head packet's routing (see Router.tryAllocate);
	// 0 = not computed, reset when the head changes (headChanged).
	route     uint16
	port, idx uint8
}

// NewVC constructs a free-standing VC with the given capacities.
func NewVC(capFlits, maxPkts int) *VC {
	v := &VC{}
	v.init(capFlits, maxPkts)
	return v
}

func (v *VC) init(capFlits, maxPkts int) {
	if capFlits < 1 || maxPkts < 1 {
		panic(fmt.Sprintf("router: invalid VC capacity (%d flits, %d pkts)", capFlits, maxPkts))
	}
	v.CapFlits, v.MaxPkts = int32(capFlits), int32(maxPkts)
}

// insert places a fresh entry for pkt at position pos (Len() = back) and
// counts the packet as resident.
func (v *VC) insert(pos int, pkt *message.Packet, arrived int, cycle int64) *Entry {
	if v.entries.Len() == v.entries.Cap() && v.owner != nil {
		v.entries.Adopt(v.owner.tab.window(max(injWindow, 2*v.entries.Cap())))
	}
	v.entries.InsertAt(pos, Entry{Pkt: pkt, Arrived: int16(arrived), EnqueueCycle: cycle, LastMove: cycle})
	v.flits += int32(arrived)
	if r := v.owner; r != nil {
		r.resident++
		r.occ[v.port] |= 1 << v.idx
	}
	if pos == 0 {
		v.headChanged()
	}
	return v.entries.Ptr(pos)
}

// remove drops the entry at position i and uncounts its packet. Flit
// accounting is the caller's: a streaming departure has already
// decremented per flit.
func (v *VC) remove(i int) {
	v.entries.RemoveAt(i)
	if r := v.owner; r != nil {
		r.resident--
		if v.entries.Empty() {
			r.occ[v.port] &^= 1 << v.idx
		}
	}
	if i == 0 {
		v.headChanged()
	}
}

// headChanged forgets the old head's route and blocked bit and takes the
// alloc and ready bits from the new head (which may be an allocated
// injection head that a packet parked in front of).
func (v *VC) headChanged() {
	v.route = 0
	if r := v.owner; r != nil {
		bit := uint64(1) << v.idx
		r.blocked[v.port] &^= bit
		r.alloc[v.port] &^= bit
		r.ready[v.port] &^= bit
		if h := v.Head(); h != nil {
			if h.Allocated {
				r.alloc[v.port] |= bit
			}
			if h.Sent < h.Arrived {
				r.ready[v.port] |= bit
			}
		}
	}
}

// Empty reports whether the VC holds no packets.
func (v *VC) Empty() bool { return v.entries.Empty() }

// Len reports the number of resident packets.
func (v *VC) Len() int { return v.entries.Len() }

// Head returns the front entry, or nil when empty.
func (v *VC) Head() *Entry {
	if v.entries.Empty() {
		return nil
	}
	return v.entries.Ptr(0)
}

// EntryAt returns the resident entry at position i (0 = front). The
// entry is owned by the VC; its slot is reused when its packet departs.
func (v *VC) EntryAt(i int) *Entry { return v.entries.Ptr(i) }

// CanAccept reports whether a packet of length flits could be enqueued
// whole right now.
func (v *VC) CanAccept(flitLen int) bool {
	return v.entries.Len() < int(v.MaxPkts) && int(v.flits)+flitLen <= int(v.CapFlits)
}

// Lands reports whether a flit arriving on the wire can enter v: a head
// needs room for a packet, a body flit a tail entry of its own packet
// that has taken exactly the flits before it.
func (v *VC) Lands(f message.Flit) bool {
	if f.IsHead() {
		return v.entries.Len() < int(v.MaxPkts)
	}
	n := v.entries.Len()
	if n == 0 || f.Seq < 1 || f.Seq >= f.Pkt.Len {
		return false
	}
	tail := v.entries.Ptr(n - 1)
	return tail.Pkt == f.Pkt && int(tail.Arrived) == f.Seq
}

// EnqueueWhole inserts a packet with all flits present (injection
// queues, forced moves). It panics when capacity would be violated —
// callers must check CanAccept (or deliberately use EnqueueOverflow).
func (v *VC) EnqueueWhole(pkt *message.Packet, cycle int64) *Entry {
	if !v.CanAccept(pkt.Len) {
		panic(fmt.Sprintf("router: EnqueueWhole over capacity (%s)", pkt))
	}
	return v.EnqueueOverflow(pkt, cycle)
}

// EnqueueOverflow inserts a packet with all flits present even if doing
// so exceeds the configured capacity. FastPass uses it for rejected
// FastPass-Packets returning to their prime's request injection queue:
// the paper's router provides dedicated paths (Fig. 6, purple/green)
// guaranteeing the returned packet a slot, and never drops it (Qn 2).
func (v *VC) EnqueueOverflow(pkt *message.Packet, cycle int64) *Entry {
	return v.insert(v.entries.Len(), pkt, pkt.Len, cycle)
}

// EnqueueFrontOverflow inserts a packet with all flits present at the
// front of the FIFO, ignoring capacity. FastPass parks rejected
// FastPass-Packets this way so the prime's scan — which always starts
// with the request injection queue — re-selects them first (Qn 2,
// Fig. 5a). If the current head has already sent flits, the packet slots
// in right behind it to preserve wormhole integrity.
func (v *VC) EnqueueFrontOverflow(pkt *message.Packet, cycle int64) *Entry {
	pos := 0
	if h := v.Head(); h != nil && h.Sent > 0 {
		pos = 1
	}
	return v.insert(pos, pkt, pkt.Len, cycle)
}

// AcceptHead starts receiving a packet flit-by-flit from a link (network
// VCs). The VC must be free.
func (v *VC) AcceptHead(pkt *message.Packet, cycle int64) *Entry {
	if v.entries.Len() >= int(v.MaxPkts) {
		panic(fmt.Sprintf("router: head flit into occupied VC (%s)", pkt))
	}
	return v.insert(v.entries.Len(), pkt, 1, cycle)
}

// AcceptBody receives a subsequent flit of the in-flight tail packet.
func (v *VC) AcceptBody(pkt *message.Packet, cycle int64) {
	e := v.entries.Ptr(v.entries.Len() - 1)
	if e.Pkt != pkt {
		panic(fmt.Sprintf("router: body flit of %s interleaved into VC holding %s", pkt, e.Pkt))
	}
	if int(e.Arrived) >= e.Pkt.Len {
		panic(fmt.Sprintf("router: too many flits for %s", pkt))
	}
	e.Arrived++
	e.LastMove = cycle
	v.flits++
	if r := v.owner; r != nil && v.entries.Len() == 1 {
		r.ready[v.port] |= 1 << v.idx
	}
}

// SendFlit records the departure of the next flit of the head packet
// and returns it. When the tail departs, the entry is popped — and its
// slot zeroed: callers must not touch the entry afterwards — and done
// is true (the VC, or its slot, is free again).
func (v *VC) SendFlit(cycle int64) (f message.Flit, done bool) {
	e := v.Head()
	if e == nil || e.Sent >= e.Arrived {
		panic("router: SendFlit with no flit available")
	}
	f = message.Flit{Pkt: e.Pkt, Seq: int(e.Sent)}
	e.Sent++
	e.LastMove = cycle
	v.flits--
	if int(e.Sent) == e.Pkt.Len {
		v.remove(0)
		return f, true
	}
	if r := v.owner; r != nil && e.Sent == e.Arrived {
		r.ready[v.port] &^= 1 << v.idx
	}
	return f, false
}

// RemoveHead extracts the entire head packet atomically (upgrades to
// FastPass, forced moves, dynamic-bubble drops). The head must be fully
// buffered.
func (v *VC) RemoveHead() *message.Packet {
	if v.Empty() {
		panic("router: RemoveHead on empty VC")
	}
	return v.RemoveAt(0)
}

// RemoveAt extracts the fully-buffered packet at index i (dynamic-bubble
// dropping picks victims from the back of the request injection queue).
func (v *VC) RemoveAt(i int) *message.Packet {
	e := v.entries.Ptr(i)
	if !e.FullyBuffered() {
		panic(fmt.Sprintf("router: RemoveAt on streaming packet %s", e.Pkt))
	}
	pkt := e.Pkt
	v.flits -= int32(pkt.Len)
	v.remove(i)
	return pkt
}
