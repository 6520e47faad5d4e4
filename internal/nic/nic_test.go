package nic

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/message"
	"repro/internal/snapshot"
)

func pkt(id uint64, c message.Class, n int) *message.Packet {
	return message.NewPacket(id, 0, 1, c, n, 0)
}

func TestTickMovesSourceToRouter(t *testing.T) {
	n := New(0, 4)
	var injected []*message.Packet
	budget := 2
	n.Inject = func(p *message.Packet) bool {
		if len(injected) >= budget {
			return false
		}
		injected = append(injected, p)
		return true
	}
	for i := 0; i < 4; i++ {
		n.EnqueueSource(pkt(uint64(i), message.Request, 1))
	}
	tick(n, 0)
	if len(injected) != 2 {
		t.Fatalf("injected %d, want 2 (router backpressure)", len(injected))
	}
	if n.SourceDepth(message.Request) != 2 {
		t.Errorf("source depth = %d, want 2", n.SourceDepth(message.Request))
	}
	budget = 10
	tick(n, 1)
	if len(injected) != 4 || n.TotalSourceDepth() != 0 {
		t.Errorf("drain failed: injected=%d depth=%d", len(injected), n.TotalSourceDepth())
	}
	// FIFO order preserved.
	for i, p := range injected {
		if p.ID != uint64(i) {
			t.Errorf("injection order broken at %d: %v", i, p)
		}
	}
}

func TestEnqueueSourceFront(t *testing.T) {
	n := New(0, 4)
	a, b := pkt(1, message.Request, 1), pkt(2, message.Request, 1)
	n.EnqueueSource(a)
	n.EnqueueSourceFront(b)
	var got []*message.Packet
	n.Inject = func(p *message.Packet) bool { got = append(got, p); return true }
	tick(n, 0)
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatalf("regenerated packet must go first: %v", got)
	}
}

func TestRegularEjectionAssembly(t *testing.T) {
	n := New(0, 4)
	var seen []*message.Packet
	n.OnEject = func(p *message.Packet) { seen = append(seen, p) }
	p := pkt(1, message.Response, 3)
	if !n.CanEject(p) {
		t.Fatal("empty queue must accept")
	}
	n.BeginEject(p)
	for i := 0; i < 3; i++ {
		n.EjectFlit(int64(10+i), message.Flit{Pkt: p, Seq: i})
	}
	if len(seen) != 1 || seen[0] != p {
		t.Fatalf("OnEject = %v", seen)
	}
	if p.EjectTime != 12 {
		t.Errorf("EjectTime = %d, want 12", p.EjectTime)
	}
	if n.EjectDepth(message.Response) != 1 {
		t.Errorf("depth = %d", n.EjectDepth(message.Response))
	}
}

func TestPendingEjectionCountsAgainstCapacity(t *testing.T) {
	n := New(0, 1)
	a, b := pkt(1, message.Request, 2), pkt(2, message.Request, 1)
	n.BeginEject(a)
	if n.CanEject(b) {
		t.Fatal("pending ejection must hold the slot")
	}
	n.CancelEject(a)
	if !n.CanEject(b) {
		t.Fatal("cancel must release the slot")
	}
}

func TestConsumerDrainsQueues(t *testing.T) {
	n := New(0, 2)
	n.Consumer = ImmediateConsumer
	p := pkt(1, message.Response, 1)
	n.BeginEject(p)
	n.EjectFlit(0, message.Flit{Pkt: p, Seq: 0})
	tick(n, 1)
	if n.EjectDepth(message.Response) != 0 {
		t.Fatal("immediate consumer should drain")
	}
	if n.Consumed[message.Response] != 1 {
		t.Errorf("Consumed = %d", n.Consumed[message.Response])
	}
}

func TestStallingConsumerBlocksQueue(t *testing.T) {
	n := New(0, 1)
	stalled := true
	n.Consumer = ConsumeFunc(func(_ int64, _ *message.Packet) bool { return !stalled })
	p := pkt(1, message.Request, 1)
	n.BeginEject(p)
	n.EjectFlit(0, message.Flit{Pkt: p, Seq: 0})
	tick(n, 1)
	if n.EjectDepth(message.Request) != 1 {
		t.Fatal("stalled consumer should leave the packet")
	}
	if n.CanEject(pkt(2, message.Request, 1)) {
		t.Fatal("full queue must refuse")
	}
	stalled = false
	tick(n, 2)
	if n.EjectDepth(message.Request) != 0 {
		t.Fatal("unstalled consumer should drain")
	}
}

func TestReservationHoldsSlotForFastPassPacket(t *testing.T) {
	n := New(0, 1)
	// Fill the queue with a regular packet that the consumer won't take.
	n.Consumer = ConsumeFunc(func(int64, *message.Packet) bool { return false })
	occupant := pkt(1, message.Response, 1)
	n.BeginEject(occupant)
	n.EjectFlit(0, message.Flit{Pkt: occupant, Seq: 0})

	fp := pkt(2, message.Response, 1)
	if n.CanEject(fp) {
		t.Fatal("full queue must reject the FastPass packet")
	}
	if !n.TryReserve(fp) {
		t.Fatal("free reservation refused")
	}
	if !n.HasReservation(fp) {
		t.Fatal("reservation missing")
	}
	if !n.TryReserve(fp) { // idempotent for the holder
		t.Fatal("holder lost its reservation")
	}
	if n.Reservations(message.Response) != 1 {
		t.Fatalf("duplicate reservation recorded")
	}

	// Queue frees up: the slot belongs to fp, not to others.
	n.Consumer = ImmediateConsumer
	tick(n, 1)
	other := pkt(3, message.Response, 1)
	if n.CanEject(other) {
		t.Fatal("freed slot must be held for the reserved packet")
	}
	if !n.CanEject(fp) {
		t.Fatal("reserved packet must be admitted")
	}
	n.EjectFast(2, fp)
	if n.HasReservation(fp) {
		t.Error("reservation should clear on ejection")
	}
	if fp.EjectTime != 2 {
		t.Errorf("EjectTime = %d", fp.EjectTime)
	}
}

func TestSingleReservationPerQueue(t *testing.T) {
	n := New(0, 2)
	a, b := pkt(1, message.Response, 1), pkt(2, message.Response, 1)
	if !n.TryReserve(a) {
		t.Fatal("first reservation refused")
	}
	if n.TryReserve(b) {
		t.Fatal("second reservation granted while the first is live")
	}
	// One free slot: only the holder may use it.
	occupant := pkt(3, message.Response, 1)
	n.BeginEject(occupant)
	n.EjectFlit(0, message.Flit{Pkt: occupant, Seq: 0})
	if !n.CanEject(a) {
		t.Error("holder should fit in the single free slot")
	}
	if n.CanEject(b) || n.CanEject(pkt(4, message.Response, 1)) {
		t.Error("non-holders must leave the reserved slot untouched")
	}
	// Once the holder lands, the reservation frees for the next packet.
	n.EjectFast(1, a)
	if !n.TryReserve(b) {
		t.Error("reservation should free after the holder ejects")
	}
}

func TestReservationsAreParClass(t *testing.T) {
	n := New(0, 1)
	fp := pkt(1, message.Response, 1)
	n.TryReserve(fp)
	// A different class is unaffected.
	if !n.CanEject(pkt(2, message.Request, 1)) {
		t.Fatal("reservation must not leak across classes")
	}
}

func TestEjectFlitPanicsOnInterleave(t *testing.T) {
	n := New(0, 4)
	a, b := pkt(1, message.Response, 2), pkt(2, message.Response, 2)
	n.BeginEject(a)
	n.BeginEject(b)
	n.EjectFlit(0, message.Flit{Pkt: a, Seq: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.EjectFlit(0, message.Flit{Pkt: b, Seq: 0})
}

func TestCancelEjectClearsAssembly(t *testing.T) {
	n := New(0, 4)
	a := pkt(1, message.Response, 3)
	n.BeginEject(a)
	n.EjectFlit(0, message.Flit{Pkt: a, Seq: 0})
	n.CancelEject(a)
	// A new packet can start assembling.
	b := pkt(2, message.Response, 1)
	n.BeginEject(b)
	n.EjectFlit(1, message.Flit{Pkt: b, Seq: 0})
	if n.EjectDepth(message.Response) != 1 {
		t.Fatal("fresh assembly after cancel failed")
	}
}

func TestPeekEject(t *testing.T) {
	n := New(0, 4)
	if n.PeekEject(message.Request) != nil {
		t.Fatal("empty peek should be nil")
	}
	p := pkt(1, message.Request, 1)
	n.Consumer = ConsumeFunc(func(int64, *message.Packet) bool { return false })
	n.BeginEject(p)
	n.EjectFlit(0, message.Flit{Pkt: p, Seq: 0})
	if n.PeekEject(message.Request) != p {
		t.Fatal("peek should return head")
	}
}

// TestPrependAfterWrap drives the source ring's head around the backing
// array with interleaved enqueue/inject cycles, then re-issues a packet
// at the front — the regression the old slice queue hid: a prepend after
// the physical head has wrapped must still come out first, with the rest
// of the queue intact.
func TestPrependAfterWrap(t *testing.T) {
	n := New(0, 4)
	var got []*message.Packet
	budget := 0
	n.Inject = func(p *message.Packet) bool {
		if budget == 0 {
			return false
		}
		budget--
		got = append(got, p)
		return true
	}
	// Cycle enough packets through to wrap the ring's head several times.
	next := uint64(100)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			n.EnqueueSource(pkt(next, message.Request, 1))
			next++
		}
		budget = 3
		tick(n, int64(round))
	}
	got = got[:0]
	// Leave a resident tail, then prepend a regenerated packet.
	tail1, tail2 := pkt(1, message.Request, 1), pkt(2, message.Request, 1)
	n.EnqueueSource(tail1)
	n.EnqueueSource(tail2)
	regen := pkt(3, message.Request, 1)
	n.EnqueueSourceFront(regen)
	budget = 3
	tick(n, 99)
	if len(got) != 3 || got[0] != regen || got[1] != tail1 || got[2] != tail2 {
		t.Fatalf("prepend after wrap broke ordering: %v", got)
	}
}

// TestDuplicateReservationRelease covers the reservation lifecycle around
// EjectFast: releasing via ejection must free the slot exactly once, a
// second EjectFast for the same (already-released) holder must not
// disturb another packet's fresh reservation, and the old O(n)
// append-splice removal's failure mode — corrupting neighbouring
// entries — must not reappear.
func TestDuplicateReservationRelease(t *testing.T) {
	n := New(0, 1)
	a := pkt(1, message.Response, 1)
	b := message.NewPacket(2, 3, 1, message.Response, 1, 0)
	if !n.TryReserve(a) {
		t.Fatal("first reservation refused")
	}
	if !n.TryReserve(a) {
		t.Fatal("re-reserving by the holder must be idempotent")
	}
	if n.Reservations(message.Response) != 1 {
		t.Fatalf("idempotent re-reserve duplicated the entry: %d", n.Reservations(message.Response))
	}
	if n.TryReserve(b) {
		t.Fatal("second packet stole the single reservation")
	}
	n.EjectFast(5, a) // consumes the slot and releases the reservation
	if n.HasReservation(a) {
		t.Error("reservation survived its own ejection")
	}
	n.Consumer = ImmediateConsumer
	tick(n, 6) // drain so the queue frees
	if !n.TryReserve(b) {
		t.Fatal("slot not reusable after release")
	}
	// A stale duplicate release for a must leave b's reservation alone.
	n.EjectFast(7, a)
	if !n.HasReservation(b) || n.Reservations(message.Response) != 1 {
		t.Fatalf("duplicate release corrupted the list: has(b)=%v count=%d",
			n.HasReservation(b), n.Reservations(message.Response))
	}
}

// refNIC is the NIC as it stood before its queues became intrusive and
// its reservation list a single slot — source, eject and reserved as
// plain slices, every scan and generality of the original kept — and
// serves as the lockstep reference for TestMatchesReferenceNIC.
type refNIC struct {
	ejectCap       int
	inject         func(*message.Packet) bool
	consumer       Consumer
	stall          func(int64) bool
	enqueued       int64
	source, eject  [message.NumClasses][]*message.Packet
	reserved       [message.NumClasses][]uint64
	pending        [message.NumClasses]int
	assembling     [message.NumClasses]*message.Packet
	assembledFlits [message.NumClasses]int
	consumed       [message.NumClasses]int64
}

func (n *refNIC) idle() bool {
	for c := range n.source {
		if len(n.source[c]) > 0 || len(n.eject[c]) > 0 {
			return false
		}
	}
	return true
}

func (n *refNIC) enqueueSource(p *message.Packet) {
	n.source[p.Class] = append(n.source[p.Class], p)
	n.enqueued++
}

func (n *refNIC) enqueueSourceFront(p *message.Packet) {
	n.source[p.Class] = append([]*message.Packet{p}, n.source[p.Class]...)
}

func (n *refNIC) totalSourceDepth() int {
	t := 0
	for c := range n.source {
		t += len(n.source[c])
	}
	return t
}

func (n *refNIC) tickConsume(cycle int64) {
	if n.stall != nil && n.stall(cycle) {
		return
	}
	for c := range n.eject {
		for len(n.eject[c]) > 0 {
			if !n.consumer.TryConsume(cycle, n.eject[c][0]) {
				break
			}
			n.eject[c] = n.eject[c][1:]
			n.consumed[c]++
		}
	}
}

func (n *refNIC) tickInject() {
	for c := range n.source {
		for len(n.source[c]) > 0 {
			if !n.inject(n.source[c][0]) {
				break
			}
			n.source[c] = n.source[c][1:]
		}
	}
}

func (n *refNIC) freeSlots(c message.Class) int {
	return n.ejectCap - len(n.eject[c]) - n.pending[c]
}

func (n *refNIC) reservationIndex(c message.Class, id uint64) int {
	for i, r := range n.reserved[c] {
		if r == id {
			return i
		}
	}
	return -1
}

func (n *refNIC) canEject(p *message.Packet) bool {
	free := n.freeSlots(p.Class)
	if i := n.reservationIndex(p.Class, p.ID); i >= 0 {
		return free >= i+1
	}
	return free >= len(n.reserved[p.Class])+1
}

func (n *refNIC) tryReserve(p *message.Packet) bool {
	if n.reservationIndex(p.Class, p.ID) >= 0 {
		return true
	}
	if len(n.reserved[p.Class]) > 0 {
		return false
	}
	n.reserved[p.Class] = append(n.reserved[p.Class], p.ID)
	return true
}

func (n *refNIC) hasReservation(p *message.Packet) bool {
	return n.reservationIndex(p.Class, p.ID) >= 0
}

func (n *refNIC) ejectFlit(cycle int64, f message.Flit) {
	c := f.Pkt.Class
	if n.assembling[c] == nil {
		n.assembling[c] = f.Pkt
		n.assembledFlits[c] = 0
	}
	n.assembledFlits[c]++
	if n.assembledFlits[c] == f.Pkt.Len {
		n.assembling[c] = nil
		n.assembledFlits[c] = 0
		n.pending[c]--
		n.finish(cycle, f.Pkt)
	}
}

func (n *refNIC) ejectFast(cycle int64, p *message.Packet) {
	if i := n.reservationIndex(p.Class, p.ID); i >= 0 {
		n.reserved[p.Class] = append(n.reserved[p.Class][:i], n.reserved[p.Class][i+1:]...)
	}
	n.finish(cycle, p)
}

func (n *refNIC) finish(cycle int64, p *message.Packet) {
	p.EjectTime = cycle
	n.eject[p.Class] = append(n.eject[p.Class], p)
}

// snapshotState writes what the ring-based NIC.SnapshotState wrote,
// moved to format v6: a mask of the classes with any queued, assembling
// or counted state, then those classes only, then a mask of the classes
// holding a reservation and their reserved IDs.
func (n *refNIC) snapshotState(w *snapshot.Writer) {
	w.I64(n.enqueued)
	var live, reserved uint64
	for c := range n.source {
		if len(n.source[c])+len(n.eject[c]) > 0 || n.pending[c] != 0 ||
			n.assembling[c] != nil || n.assembledFlits[c] != 0 || n.consumed[c] != 0 {
			live |= 1 << c
		}
		if len(n.reserved[c]) > 0 {
			reserved |= 1 << c
		}
	}
	w.U64(live)
	for c := range n.source {
		if live>>c&1 == 0 {
			continue
		}
		for _, q := range [][]*message.Packet{n.source[c], n.eject[c]} {
			w.Int(len(q))
			for _, p := range q {
				w.Packet(p)
			}
		}
		w.Int(n.pending[c])
		w.Packet(n.assembling[c])
		w.Int(n.assembledFlits[c])
		w.I64(n.consumed[c])
	}
	w.U64(reserved)
	for c := range n.source {
		for _, id := range n.reserved[c] {
			w.U64(id)
		}
	}
}

// TestMatchesReferenceNIC steps the NIC and refNIC through the same
// random script — source enqueues and MSHR re-issues, a router that
// refuses injections, regular ejections streamed flit by flit, FastPass
// arrivals that land, reserve or retry, consumers that stall per class
// and a NIC-wide stall — and compares every observable after every step:
// injection and consumption order, depths, idleness, CanEject and
// HasReservation for every packet in play, and the checkpoint bytes.
func TestMatchesReferenceNIC(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const ejectCap = 2
		n, ref := New(0, ejectCap), &refNIC{ejectCap: ejectCap}

		var budget int // injections the router accepts this cycle
		var injected, refInjected, consumedLog, refConsumed []*message.Packet
		n.Inject = func(p *message.Packet) bool {
			if len(injected) >= budget {
				return false
			}
			injected = append(injected, p)
			return true
		}
		ref.inject = func(p *message.Packet) bool {
			if len(refInjected) >= budget {
				return false
			}
			refInjected = append(refInjected, p)
			return true
		}
		var refuses [message.NumClasses]bool
		var stalled bool
		n.Consumer = ConsumeFunc(func(_ int64, p *message.Packet) bool {
			if refuses[p.Class] {
				return false
			}
			consumedLog = append(consumedLog, p)
			return true
		})
		ref.consumer = ConsumeFunc(func(_ int64, p *message.Packet) bool {
			if refuses[p.Class] {
				return false
			}
			refConsumed = append(refConsumed, p)
			return true
		})
		n.Stall = func(int, int64) bool { return stalled }
		ref.stall = func(int64) bool { return stalled }

		var nextID uint64
		fresh := func() *message.Packet {
			nextID++
			return message.NewPacket(nextID, 0, 1, message.Class(rng.Intn(int(message.NumClasses))), 1+rng.Intn(5), 0)
		}
		var streaming [message.NumClasses]*message.Packet // regular ejections in progress
		var sent [message.NumClasses]int
		var retrying []*message.Packet // FastPass packets that found the queue full
		var reserves, refusedInjects int

		for cycle := int64(0); cycle < 5000; cycle++ {
			for k := rng.Intn(3); k > 0; k-- {
				p := fresh()
				n.EnqueueSource(p)
				ref.enqueueSource(p)
			}
			if rng.Intn(8) == 0 {
				p := fresh()
				n.EnqueueSourceFront(p)
				ref.enqueueSourceFront(p)
			}
			// Regular ejections: start one where the class is free, advance the rest.
			for c := range streaming {
				if streaming[c] == nil && rng.Intn(3) == 0 {
					p := fresh()
					p.Class = message.Class(c)
					if got, want := n.CanEject(p), ref.canEject(p); got != want {
						t.Fatalf("seed %d cycle %d: CanEject(%s) = %v, reference %v", seed, cycle, p, got, want)
					} else if got {
						n.BeginEject(p)
						ref.pending[c]++
						streaming[c], sent[c] = p, 0
					}
				}
				if p := streaming[c]; p != nil && rng.Intn(2) == 0 {
					f := message.Flit{Pkt: p, Seq: sent[c]}
					n.EjectFlit(cycle, f)
					ref.ejectFlit(cycle, f)
					if sent[c]++; sent[c] == p.Len {
						streaming[c] = nil
					}
				}
			}
			// FastPass arrivals: a new one now and then, and every retry.
			arrivals := retrying
			retrying = nil
			if rng.Intn(3) == 0 {
				arrivals = append(arrivals, fresh())
			}
			for _, p := range arrivals {
				can, refCan := n.CanEject(p), ref.canEject(p)
				if can != refCan {
					t.Fatalf("seed %d cycle %d: CanEject(%s) = %v, reference %v", seed, cycle, p, can, refCan)
				}
				if can {
					n.EjectFast(cycle, p)
					ref.ejectFast(cycle, p)
					continue
				}
				got, want := n.TryReserve(p), ref.tryReserve(p)
				if got != want {
					t.Fatalf("seed %d cycle %d: TryReserve(%s) = %v, reference %v", seed, cycle, p, got, want)
				}
				if got && len(retrying) == 0 {
					reserves++
				}
				retrying = append(retrying, p)
			}
			for _, p := range retrying {
				if got, want := n.HasReservation(p), ref.hasReservation(p); got != want {
					t.Fatalf("seed %d cycle %d: HasReservation(%s) = %v, reference %v", seed, cycle, p, got, want)
				}
			}
			if rng.Intn(16) == 0 {
				refuses[rng.Intn(len(refuses))] = rng.Intn(2) == 0
			}
			if rng.Intn(32) == 0 {
				stalled = !stalled
			}
			budget = len(injected) + rng.Intn(4)
			n.TickConsume(cycle)
			n.TickInject(cycle)
			ref.tickConsume(cycle)
			ref.tickInject()
			if n.TotalSourceDepth() > 0 {
				refusedInjects++
			}

			if !slices.Equal(injected, refInjected) || !slices.Equal(consumedLog, refConsumed) {
				t.Fatalf("seed %d cycle %d: injection or consumption order diverged", seed, cycle)
			}
			if n.Idle() != ref.idle() || n.TotalSourceDepth() != ref.totalSourceDepth() || n.Enqueued != ref.enqueued {
				t.Fatalf("seed %d cycle %d: idle %v/%v, source depth %d/%d, enqueued %d/%d", seed, cycle,
					n.Idle(), ref.idle(), n.TotalSourceDepth(), ref.totalSourceDepth(), n.Enqueued, ref.enqueued)
			}
			for c := message.Class(0); c < message.NumClasses; c++ {
				if n.SourceDepth(c) != len(ref.source[c]) || n.EjectDepth(c) != len(ref.eject[c]) ||
					n.Reservations(c) != len(ref.reserved[c]) || n.Consumed[c] != ref.consumed[c] {
					t.Fatalf("seed %d cycle %d class %v: depths %d/%d vs %d/%d, reservations %d vs %d, consumed %d vs %d", seed, cycle, c,
						n.SourceDepth(c), n.EjectDepth(c), len(ref.source[c]), len(ref.eject[c]),
						n.Reservations(c), len(ref.reserved[c]), n.Consumed[c], ref.consumed[c])
				}
				var head *message.Packet
				if len(ref.eject[c]) > 0 {
					head = ref.eject[c][0]
				}
				if n.PeekEject(c) != head || !slices.Equal(slices.Collect(n.Ejected(c)), ref.eject[c]) {
					t.Fatalf("seed %d cycle %d class %v: ejection queue contents diverged", seed, cycle, c)
				}
				stranger := message.NewPacket(0, 0, 1, c, 1, 0) // holds no reservation
				if got, want := n.CanEject(stranger), ref.canEject(stranger); got != want {
					t.Fatalf("seed %d cycle %d class %v: CanEject(stranger) = %v, reference %v", seed, cycle, c, got, want)
				}
			}
			for _, p := range retrying {
				if got, want := n.CanEject(p), ref.canEject(p); got != want {
					t.Fatalf("seed %d cycle %d: CanEject(%s) = %v after the tick, reference %v", seed, cycle, p, got, want)
				}
			}
			got, want := snapshot.NewWriter(), snapshot.NewWriter()
			n.SnapshotState(got)
			ref.snapshotState(want)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d cycle %d: checkpoint bytes differ from the ring-based encoding", seed, cycle)
			}
		}
		if len(consumedLog) < 1000 || len(injected) < 1000 || reserves < 100 || refusedInjects < 100 {
			t.Errorf("seed %d: script too quiet (%d consumed, %d injected, %d reservations, %d cycles ending with a source backlog)",
				seed, len(consumedLog), len(injected), reserves, refusedInjects)
		}
	}
}

// TestRestoreRebuildsQueues: a NIC restored from its own snapshot holds
// the same packets in the same order, and its occupancy counters — not
// part of the blob — are recounted.
func TestRestoreRebuildsQueues(t *testing.T) {
	n := New(3, 4)
	n.Inject = func(*message.Packet) bool { return false }
	n.Consumer = ConsumeFunc(func(int64, *message.Packet) bool { return false })
	for i := 0; i < 5; i++ {
		n.EnqueueSource(pkt(uint64(i+1), message.Class(i%2), 1))
	}
	landed := pkt(9, message.Response, 1)
	n.EjectFast(7, landed)
	holder := pkt(10, message.Unblock, 1)
	n.TryReserve(holder)
	w := snapshot.NewWriter()
	n.SnapshotState(w)

	m := New(3, 4)
	_, r, err := snapshot.Open(snapshot.Seal(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	m.RestoreState(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if m.TotalSourceDepth() != 5 || m.Idle() || m.EjectDepth(message.Response) != 1 ||
		m.SourceDepth(message.Request) != 3 || m.SourceDepth(message.Forward) != 2 {
		t.Fatalf("restored depths wrong: %d at source, idle %v", m.TotalSourceDepth(), m.Idle())
	}
	if !m.HasReservation(holder) || m.Reservations(message.Unblock) != 1 || m.Reservations(message.Request) != 0 {
		t.Error("reservation did not survive the round trip")
	}
	w2 := snapshot.NewWriter()
	m.SnapshotState(w2)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Error("re-encoding the restored NIC changed the bytes")
	}
}

// SourceDepth reports queued packets for a class (throttling metric).
func (n *NIC) SourceDepth(c message.Class) int { return n.source[c].Len() }

// tick runs a NIC's whole cycle: consumption, then injection.
func tick(n *NIC, cycle int64) {
	n.TickConsume(cycle)
	n.TickInject(cycle)
}
