package fastpass

import (
	"math/rand"
	"testing"

	"repro/internal/message"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/topology"
)

// fakeHost is the least fabric WalkLanes can ride: per node the six
// injection queues and one network buffer, one reservation a node for
// the packets promoted toward it (as a NIC keeps one a class), and a
// claim set the test clears each cycle.
type fakeHost struct {
	t        *testing.T
	vcs      [][2][]*router.VC // [node][port][vc]
	claimed  map[int]bool
	reserved []int
	events   []LaneEvent
}

func (h *fakeHost) ClaimLink(link int) {
	if h.claimed[link] {
		h.t.Fatalf("link %d claimed twice in one cycle", link)
	}
	h.claimed[link] = true
}
func (h *fakeHost) VC(node, port, vc int) *router.VC { return h.vcs[node][port][vc] }
func (h *fakeHost) Occupancy(node int, occ []uint64) {
	for p, vcs := range h.vcs[node] {
		occ[p] = 0
		for v, q := range vcs {
			if !q.Empty() {
				occ[p] |= 1 << v
			}
		}
	}
}
func (h *fakeHost) RemoveHead(node, port, vc int) *message.Packet {
	return h.vcs[node][port][vc].RemoveHead()
}
func (h *fakeHost) Admit(pkt *message.Packet) bool {
	return h.reserved[pkt.Dst] == 0
}
func (h *fakeHost) Note(ev LaneEvent, pkt *message.Packet, _ int) {
	switch ev {
	case LaneBoarded:
		h.reserved[pkt.Dst]++
	case LaneDelivered:
		h.reserved[pkt.Dst]--
	}
	h.events = append(h.events, ev)
}

// fabric builds a fake host and an engine over the closed walk visiting
// nodes seq[0], seq[1], …, back to seq[0]: link i runs seq[i] → seq[i+1]
// and the walk is the links in order.
func fabric(t *testing.T, nodes int, seq []int, ejectCap int) (*fakeHost, *WalkLanes, []int) {
	links := make([]topology.Link, len(seq))
	walk := make([]int, len(seq))
	for i := range seq {
		links[i] = topology.Link{ID: i, Src: seq[i], Dst: seq[(i+1)%len(seq)], SrcPort: 1, DstPort: 1}
		walk[i] = i
	}
	h := &fakeHost{t: t, claimed: map[int]bool{}, reserved: make([]int, nodes)}
	nics := make([]*nic.NIC, nodes)
	for n := 0; n < nodes; n++ {
		nics[n] = nic.New(n, ejectCap)
		var vcs [2][]*router.VC
		for c := 0; c < int(message.NumClasses); c++ {
			vcs[0] = append(vcs[0], router.NewVC(10, 10))
		}
		vcs[1] = []*router.VC{router.NewVC(MaxPktLen, 1)}
		h.vcs = append(h.vcs, vcs)
	}
	return h, NewWalkLanes(h, links, nics, 2, 1), walk
}

// step is one cycle as a host drives it.
func (h *fakeHost) step(w *WalkLanes, cycle int64) {
	clear(h.claimed)
	w.Step(cycle, true)
	w.DrainLandings(cycle)
}

// Steps must equal a brute-force scan of the walk for every (position,
// destination), on closed walks that revisit nodes and skip others.
func TestStepsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nodes := 2 + rng.Intn(12)
		seq := make([]int, 1+rng.Intn(40))
		for i := range seq {
			seq[i] = rng.Intn(nodes)
		}
		_, w, walk := fabric(t, nodes, seq, 1)
		w.Install(walk, 1)
		for pos := range seq {
			for dst := 0; dst < nodes; dst++ {
				want := -1
				for s := 1; s <= len(seq); s++ {
					// After s steps from pos the head has crossed link
					// pos+s-1 and stands at its far end.
					if seq[(pos+s)%len(seq)] == dst {
						want = s
						break
					}
				}
				if got := w.Steps(pos, dst); got != want {
					t.Fatalf("trial %d walk %v: Steps(%d, %d) = %d, brute force %d", trial, seq, pos, dst, got, want)
				}
			}
		}
	}
}

// Lemma 2 on the walk: with every lane count up to (and past) the cap
// and every queue kept full of maximum-length packets, no link is
// claimed twice in a cycle — fakeHost.ClaimLink fails the test if one is.
func TestLanesNeverShareALink(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nodes = 9
	seq := make([]int, 44)
	for i := range seq {
		seq[i] = rng.Intn(nodes)
	}
	limit := len(seq) / (MaxPktLen + 2)
	for lanes := 1; lanes <= limit+2; lanes++ {
		h, w, walk := fabric(t, nodes, seq, 4)
		w.Install(walk, lanes)
		if want := min(lanes, limit); w.Len() != want {
			t.Fatalf("%d lanes asked on %d links: got %d, want %d", lanes, len(seq), w.Len(), want)
		}
		id, boarded := uint64(0), 0
		for cycle := int64(0); cycle < int64(6*len(seq)); cycle++ {
			for n := 0; n < nodes; n++ {
				if q := h.vcs[n][0][message.Request]; q.CanAccept(MaxPktLen) {
					id++
					q.EnqueueWhole(message.NewPacket(id, n, (n+1+rng.Intn(nodes-1))%nodes, message.Request, MaxPktLen, cycle), cycle)
				}
			}
			h.step(w, cycle)
			for _, nc := range w.nics {
				nc.TickConsume(cycle)
			}
		}
		for _, ev := range h.events {
			if ev == LaneBoarded {
				boarded++
			}
		}
		if boarded < 10*w.Len() {
			t.Errorf("%d lanes carried only %d packets in %d cycles: the stress never loaded them", w.Len(), boarded, 6*len(seq))
		}
	}
}

// A packet one link from its destination arrives in the cycle it
// boards: one claim, one FastPass cycle, and the lane is free again.
func TestSingleHopArrivesAsItBoards(t *testing.T) {
	h, w, walk := fabric(t, 3, []int{0, 1, 2}, 1)
	w.Install(walk, 1)
	pkt := message.NewPacket(1, 0, 1, message.Response, MaxPktLen, 0)
	h.vcs[0][0][message.Response].EnqueueWhole(pkt, 0)
	h.step(w, 0) // the head leaves node 0 over link 0 → node 1
	if len(h.events) != 2 || h.events[0] != LaneBoarded || h.events[1] != LaneDelivered {
		t.Fatalf("events %v, want boarded then delivered", h.events)
	}
	if !h.claimed[0] || len(h.claimed) != 1 || pkt.FastCycles != 1 || pkt.Kind != message.FastPass || w.Riding() != 0 {
		t.Errorf("claims %v, FastCycles %d, kind %v, riding %d", h.claimed, pkt.FastCycles, pkt.Kind, w.Riding())
	}
	if w.nics[1].EjectDepth(message.Response) != 1 || h.reserved[1] != 0 {
		t.Errorf("packet not in node 1's ejection queue, or reservation leaked (%d)", h.reserved[1])
	}
}

// Flit k rides k links behind the head and never behind the boarding
// point: a 5-flit train boarding at link 2 claims {2}, {2,3}, … up to
// five links, until its head arrives.
func TestTrainClaimsFollowTheHead(t *testing.T) {
	h, w, walk := fabric(t, 10, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1)
	w.Install(walk, 1)
	w.pos[0] = 2
	pkt := message.NewPacket(1, 2, 0, message.Request, MaxPktLen, 0)
	h.vcs[2][0][message.Request].EnqueueWhole(pkt, 0)
	for k := 0; k < 8; k++ { // node 0 is 8 links from node 2
		h.step(w, int64(k))
		for link := 0; link < 10; link++ {
			if want := link <= 2+k && link >= 2 && link > 2+k-MaxPktLen; h.claimed[link] != want {
				t.Fatalf("cycle %d after boarding: link %d claimed %v, want %v (claims %v)", k, link, h.claimed[link], want, h.claimed)
			}
		}
	}
	if w.Riding() != 0 || pkt.FastCycles != 8 {
		t.Errorf("after 8 links: riding %d, FastCycles %d; want delivered with 8", w.Riding(), pkt.FastCycles)
	}
}

// A stalled destination fills its one-packet ejection queue, then the
// landing register with the packet holding its reservation; from there
// on Admit refuses and the lane passes candidates by until the consumer
// drains.
func TestFullLandingBackpressuresPickup(t *testing.T) {
	h, w, walk := fabric(t, 4, []int{0, 1, 2, 3}, 1)
	w.Install(walk, 1)
	stalled := true
	w.nics[2].Consumer = nic.ConsumeFunc(func(int64, *message.Packet) bool { return !stalled })
	for id := uint64(1); id <= 5; id++ {
		h.vcs[0][0][message.Request].EnqueueWhole(message.NewPacket(id, 0, 2, message.Request, 1, 0), 0)
	}
	count := func(want LaneEvent) (n int) {
		for _, ev := range h.events {
			if ev == want {
				n++
			}
		}
		return n
	}
	cycle := int64(0)
	for ; cycle < 40; cycle++ {
		h.step(w, cycle)
		w.nics[2].TickConsume(cycle)
	}
	// One packet fills the ejection queue, the next lands holding the
	// reservation.
	if count(LaneBoarded) != 2 || count(LaneDelivered) != 1 || count(LaneLanded) != 1 || len(w.landing[2]) != 1 {
		t.Fatalf("stalled: %d boarded, %d delivered, %d landed, %d in the register; want 2, 1, 1, 1",
			count(LaneBoarded), count(LaneDelivered), count(LaneLanded), len(w.landing[2]))
	}
	stalled = false
	for ; cycle < 80; cycle++ {
		h.step(w, cycle)
		w.nics[2].TickConsume(cycle)
	}
	if count(LaneBoarded) != 5 || count(LaneDelivered) != 5 || len(w.landing[2]) != 0 || h.reserved[2] != 0 {
		t.Errorf("drained: %d boarded, %d delivered, %d still landed, %d reserved; want 5, 5, 0, 0",
			count(LaneBoarded), count(LaneDelivered), len(w.landing[2]), h.reserved[2])
	}
}

// refScanOrder is appendScanOrder as it stood before it walked occupancy
// words: every buffer of the router in Qn 2 order, empty or not.
func refScanOrder(buf []scanSlot, ptr, total, netVCs int, injectionOnly bool) []scanSlot {
	buf = append(buf, scanSlot{0, int(message.Request)}, scanSlot{0, int(message.Response)})
	for cl := message.Class(0); cl < message.NumClasses; cl++ {
		if cl != message.Request && cl != message.Response {
			buf = append(buf, scanSlot{0, int(cl)})
		}
	}
	for k := 0; k < total && !injectionOnly; k++ {
		i := (ptr + k) % total
		buf = append(buf, scanSlot{1 + i/netVCs, i % netVCs})
	}
	return buf
}

// The occupancy-driven scan must visit exactly the occupied buffers of
// the full Qn 2 order, in that order, for every round-robin pointer.
func TestScanOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		ports, netVCs := 2+rng.Intn(5), 1+rng.Intn(64)
		total := (ports - 1) * netVCs
		ptr, injectionOnly := rng.Intn(total), trial%7 == 0
		occ := make([]uint64, ports)
		occ[0] = rng.Uint64() & (1<<message.NumClasses - 1)
		for p := 1; p < ports; p++ {
			occ[p] = rng.Uint64() & rng.Uint64() >> (64 - netVCs)
		}
		var want []scanSlot
		for _, b := range refScanOrder(nil, ptr, total, netVCs, injectionOnly) {
			if occ[b.port]>>b.vc&1 != 0 {
				want = append(want, b)
			}
		}
		got := appendScanOrder(nil, occ, ptr, netVCs, injectionOnly)
		if len(got) != len(want) {
			t.Fatalf("trial %d (ports %d, VCs %d, ptr %d, occ %x): %v, reference %v", trial, ports, netVCs, ptr, occ, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (ports %d, VCs %d, ptr %d, occ %x): %v, reference %v", trial, ports, netVCs, ptr, occ, got, want)
			}
		}
	}
}
