package router

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/message"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

func pkt(id uint64, n int) *message.Packet {
	return message.NewPacket(id, 0, 1, message.Request, n, 0)
}

func TestVCEnqueueSendWhole(t *testing.T) {
	v := NewVC(5, 1)
	p := pkt(1, 3)
	if !v.CanAccept(3) {
		t.Fatal("fresh VC should accept")
	}
	e := v.EnqueueWhole(p, 0)
	if !e.FullyBuffered() {
		t.Error("whole packet should be fully buffered")
	}
	if v.flits != 3 || v.CapFlits-v.flits != 2 {
		t.Errorf("flits=%d free=%d", v.flits, v.CapFlits-v.flits)
	}
	if v.CanAccept(1) {
		t.Error("single-packet VC must reject a second packet")
	}
	for i := 0; i < 3; i++ {
		f, done := v.SendFlit(int64(i))
		if f.Seq != i {
			t.Errorf("flit %d has seq %d", i, f.Seq)
		}
		if done != (i == 2) {
			t.Errorf("done=%v at flit %d", done, i)
		}
	}
	if !v.Empty() || v.flits != 0 {
		t.Error("VC should be empty after tail departs")
	}
}

func TestVCCutThroughStreaming(t *testing.T) {
	v := NewVC(5, 1)
	p := pkt(2, 5)
	e := v.AcceptHead(p, 10)
	if e.Arrived != 1 {
		t.Fatalf("arrived=%d", e.Arrived)
	}
	// Forward the head before the body lands (cut-through).
	if _, done := v.SendFlit(11); done {
		t.Fatal("head of 5-flit packet is not the tail")
	}
	v.AcceptBody(p, 11)
	v.AcceptBody(p, 12)
	if e.Arrived != 3 || e.Sent != 1 {
		t.Fatalf("arrived=%d sent=%d", e.Arrived, e.Sent)
	}
	if e.FullyBuffered() {
		t.Error("streaming packet must not be FullyBuffered")
	}
}

func TestVCAcceptHeadPanicsWhenOccupied(t *testing.T) {
	v := NewVC(5, 1)
	v.AcceptHead(pkt(1, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.AcceptHead(pkt(2, 1), 0)
}

func TestVCAcceptBodyWrongPacketPanics(t *testing.T) {
	v := NewVC(5, 1)
	v.AcceptHead(pkt(1, 2), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.AcceptBody(pkt(2, 2), 1)
}

func TestVCMultiPacketFIFO(t *testing.T) {
	v := NewVC(10, 10) // injection-style queue
	a, b, c := pkt(1, 5), pkt(2, 4), pkt(3, 1)
	v.EnqueueWhole(a, 0)
	v.EnqueueWhole(b, 0)
	v.EnqueueWhole(c, 0)
	if v.Len() != 3 || v.flits != 10 {
		t.Fatalf("len=%d flits=%d", v.Len(), v.flits)
	}
	if v.CanAccept(1) {
		t.Error("queue at flit capacity must reject")
	}
	if got := v.RemoveHead(); got != a {
		t.Errorf("RemoveHead = %v, want %v", got, a)
	}
	if got := v.RemoveAt(1); got != c {
		t.Errorf("RemoveAt(1) = %v, want %v", got, c)
	}
	if v.Head().Pkt != b {
		t.Error("b should remain at head")
	}
}

func TestVCEnqueueOverflowExceedsCapacity(t *testing.T) {
	v := NewVC(5, 1)
	v.EnqueueWhole(pkt(1, 5), 0)
	v.EnqueueOverflow(pkt(2, 5), 0) // rejected FastPass return
	if v.Len() != 2 || v.flits != 10 {
		t.Errorf("len=%d flits=%d after overflow", v.Len(), v.flits)
	}
}

func TestVCRemoveHeadStreamingPanics(t *testing.T) {
	v := NewVC(5, 1)
	v.AcceptHead(pkt(1, 3), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.RemoveHead()
}

func TestRRArbiterFairness(t *testing.T) {
	a := &RRArbiter{n: 4}
	all := func(int) bool { return true }
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.Grant(all))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestRRArbiterSkipsNonRequesters(t *testing.T) {
	a := &RRArbiter{n: 4}
	const reqs = 0b1010
	if g := a.GrantMask(reqs); g != 1 {
		t.Errorf("grant = %d, want 1", g)
	}
	if g := a.GrantMask(reqs); g != 3 {
		t.Errorf("grant = %d, want 3", g)
	}
	if g := a.GrantMask(reqs); g != 1 {
		t.Errorf("grant wraps to 1, got %d", g)
	}
	if g := a.GrantMask(0); g != -1 {
		t.Errorf("no requesters should yield -1, got %d", g)
	}
}

func TestRRArbiterPointerHoldsWithoutGrant(t *testing.T) {
	a := &RRArbiter{n: 3}
	a.Grant(func(i int) bool { return i == 1 })
	a.Grant(func(int) bool { return false })
	if g := a.Grant(func(int) bool { return true }); g != 2 {
		t.Errorf("pointer should sit after last winner; got %d", g)
	}
}

// TestInjectionWindowIsAdopted: a build gives no injection queue a ring
// or window; a class's first packet takes the router's fifo from its
// class's chunk, a ring on an injWindow-entry window — without touching
// the allocator once a released build has left one in the stores — and
// a queue that backs up deeper moves, order intact, to doubled windows
// cut off the top of the slab's overflow chunk. A rejected FastPass
// packet parked at the front of a full window still slots in right
// behind a head that has started sending, and a restored queue takes its
// windows the same way.
func TestInjectionWindowIsAdopted(t *testing.T) {
	mesh, cfg, env := topology.NewMesh(4, 4), adaptiveCfg(1, 2), newFakeEnv()
	mk := func(id uint64, c message.Class, flits int) *message.Packet {
		return message.NewPacket(id, 5, 6, c, flits, 0)
	}
	ids := func(q *VC) (out []uint64) {
		for i := 0; i < q.Len(); i++ {
			out = append(out, q.EntryAt(i).Pkt.ID)
		}
		return out
	}
	warm := NewAll(mesh, cfg, env)
	warm[5].InjectPacket(mk(99, message.Request, 1))
	Release(warm)

	rs := NewAll(mesh, cfg, env)
	for _, r := range rs {
		for c := range message.NumClasses {
			if q := r.VCFor(topology.Local, int(c)); q.fifo != nil {
				t.Fatalf("router %d class %d: a build gave an injection queue a ring of %d entries", r.ID, c, q.fifo.Cap())
			}
		}
	}
	if n := len(rs[0].tab.overflow); n != 0 || slices.ContainsFunc(rs[0].tab.fifos[:], func(c []fifo) bool { return c != nil }) {
		t.Fatalf("a build drew %d overflow chunks and fifo chunks of %v before any injection", n, rs[0].tab.fifos)
	}
	r := rs[5]
	q := r.VCFor(topology.Local, int(message.Request))
	pkts := make([]*message.Packet, 11)
	for i := range pkts {
		pkts[i] = mk(uint64(i+1), message.Request, 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range pkts[:injWindow] {
		r.InjectPacket(p)
	}
	runtime.ReadMemStats(&after)
	// The malloc count is process-wide, and the race detector allocates
	// behind the scenes: it is read in plain builds only.
	own := &r.tab.fifos[message.Request][5]
	inFirst := false
	for i := range own.first {
		inFirst = inFirst || q.EntryAt(0) == &own.first[i]
	}
	if n := after.Mallocs - before.Mallocs; n != 0 && !raceEnabled || q.fifo != &own.Ring || q.fifo.Cap() != injWindow || !inFirst {
		t.Errorf("a class's first %d injections made %d heap objects (capacity now %d), want none and the router's fifo, ring on its %d-entry window, from the warm stores",
			injWindow, n, q.fifo.Cap(), injWindow)
	}
	for _, p := range pkts[injWindow:10] {
		if !r.InjectPacket(p) {
			t.Fatalf("injection of %s refused", p)
		}
	}
	if r.InjectPacket(pkts[10]) {
		t.Error("an eleventh 1-flit packet fitted the 10-flit injection queue")
	}
	if got := ids(q); !slices.Equal(got, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Errorf("queue order after growing past the window: %v", got)
	}
	// Growth windows are cut off the chunk's top: 8 entries, then 16
	// below them.
	if chunk := r.tab.overflow[0][:cap(r.tab.overflow[0])]; q.fifo.Cap() != 4*injWindow || q.EntryAt(0) != &chunk[len(chunk)-6*injWindow] {
		t.Errorf("a queue of 10 packets holds a %d-entry window, not the first overflow chunk's second", q.fifo.Cap())
	}

	// Another class, its window exactly full behind a 3-flit head that
	// has sent its first flit.
	q = r.VCFor(topology.Local, int(message.Response))
	r.InjectPacket(mk(20, message.Response, 3))
	for id := uint64(21); id <= 23; id++ {
		r.InjectPacket(mk(id, message.Response, 1))
	}
	q.Head().Allocate(topology.East, 0)
	q.SendFlit(1)
	r.InsertFrontOverflow(topology.Local, int(message.Response), mk(29, message.Response, 1))
	if got := ids(q); !slices.Equal(got, []uint64{20, 29, 21, 22, 23}) {
		t.Errorf("parked packet must sit at position 1 behind the sending head: %v", got)
	}

	// A restore rebuilds each queue through insert into a fresh router.
	w := snapshot.NewWriter()
	r.SnapshotState(w)
	_, rd, err := snapshot.Open(snapshot.Seal(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(5, mesh, cfg, env)
	if fresh.RestoreState(rd); rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	for c := range message.NumClasses {
		got, want := fresh.VCFor(topology.Local, int(c)), r.VCFor(topology.Local, int(c))
		if !slices.Equal(ids(got), ids(want)) || (got.fifo == nil) != (want.fifo == nil) || want.fifo != nil && got.fifo.Cap() != want.fifo.Cap() {
			t.Errorf("class %d restored as %v in %v, want %v in %v", c, ids(got), got.fifo, ids(want), want.fifo)
		}
	}
	if chunk := fresh.tab.overflow[0][:cap(fresh.tab.overflow[0])]; fresh.VCFor(topology.Local, int(message.Request)).EntryAt(0) != &chunk[len(chunk)-6*injWindow] {
		t.Error("a restored queue's window is not cut from its router's overflow chunk")
	}
}

// TestNetworkVCHoldsNoRing: a network VC holds one packet and is its
// inline entry. A build gives none a ring, and a packet streaming
// through one (head, body flits, departure) leaves it ringless, its
// entry the VC's own, and zeroed once the tail has left.
func TestNetworkVCHoldsNoRing(t *testing.T) {
	mesh, cfg, env := topology.NewMesh(4, 4), adaptiveCfg(1, 2), newFakeEnv()
	rs := NewAll(mesh, cfg, env)
	defer Release(rs)
	for _, r := range rs {
		for p := topology.North; p < topology.NumMeshPorts; p++ {
			for v := range r.Inputs[p].VCs {
				if q := r.VCFor(p, v); q.fifo != nil || q.MaxPkts != 1 {
					t.Fatalf("router %d VC %v/%d: built with a ring (%v) or for %d packets", r.ID, p, v, q.fifo, q.MaxPkts)
				}
			}
		}
	}
	r, p := rs[5], message.NewPacket(1, 4, 7, message.Request, 3, 0)
	q := r.VCFor(topology.West, 1)
	r.Deliver(topology.West, 1, message.Flit{Pkt: p}, 0)
	r.Deliver(topology.West, 1, message.Flit{Pkt: p, Seq: 1}, 1)
	if q.fifo != nil || q.Len() != 1 || q.Head() != &q.one || q.one.Arrived != 2 {
		t.Fatalf("a streaming packet: ring %v, %d packets, head %p (inline %p) with %d flits", q.fifo, q.Len(), q.Head(), &q.one, q.one.Arrived)
	}
	q.Head().Allocate(topology.East, 0)
	q.SendFlit(2)
	q.SendFlit(2)
	r.Deliver(topology.West, 1, message.Flit{Pkt: p, Seq: 2}, 3)
	if _, done := q.SendFlit(3); !done || q.fifo != nil || !q.Empty() || q.one != (Entry{}) {
		t.Errorf("after the tail: done %v, ring %v, inline entry %+v", done, q.fifo, q.one)
	}
}
