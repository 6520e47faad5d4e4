package network

import (
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/message"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

func paramsWith(w, h, vns, vcs int, alg routing.Algorithm) Params {
	algs := make([]routing.Algorithm, vcs)
	for i := range algs {
		algs[i] = alg
	}
	classVN := func(c message.Class) int { return 0 }
	if vns == int(message.NumClasses) {
		classVN = func(c message.Class) int { return int(c) }
	}
	return Params{
		Mesh: topology.NewMesh(w, h),
		Router: router.Config{
			NumVNs: vns, VCsPerVN: vcs, BufFlits: 5, InjQueueFlits: 10,
			VCAlgorithms: algs, ClassVN: classVN,
		},
		EjectCap: 4,
	}
}

// TestTransitSize: a link stage is 32 bytes. Every channel holds two, so
// the 48 that int-wide vc and padding made cost a 32×32 mesh's build
// 127 KB more.
func TestTransitSize(t *testing.T) {
	if n := unsafe.Sizeof(transit{}); n > 32 {
		t.Errorf("network.transit is %d bytes, limit 32", n)
	}
}

// TestChannelSize: a channel is 88 bytes — its two link stages, its flit
// counter, its link as node IDs and ports, and a credit count. A copy of
// its topology.Link and a slice header for its credit pipe made it 136,
// 190 KB more on a 32×32 mesh's build.
func TestChannelSize(t *testing.T) {
	if n := unsafe.Sizeof(channel{}); n > 88 {
		t.Errorf("network.channel is %d bytes, limit 88", n)
	}
}

func TestSinglePacketEndToEnd(t *testing.T) {
	n := New(paramsWith(4, 4, 1, 2, routing.FullyAdaptive))
	src, dst := 0, 15
	var ejected []*message.Packet
	n.NICs[dst].OnEject = func(p *message.Packet) { ejected = append(ejected, p) }
	p := message.NewPacket(1, src, dst, message.Request, 5, 0)
	n.NICs[src].EnqueueSource(p)
	for i := 0; i < 60 && len(ejected) == 0; i++ {
		n.Step()
	}
	if len(ejected) != 1 {
		t.Fatal("packet never arrived")
	}
	if p.EjectTime < 0 {
		t.Fatal("EjectTime unset")
	}
	// 6 hops at 2 cycles each, plus serialization of 5 flits and
	// injection/ejection stages: latency must be in a sane band.
	lat := p.Latency()
	if lat < 12 || lat > 40 {
		t.Errorf("latency %d outside sane zero-load band [12, 40]", lat)
	}
	if p.Hops != n.Mesh.Distance(src, dst) {
		t.Errorf("hops = %d, want %d (minimal routing)", p.Hops, n.Mesh.Distance(src, dst))
	}
}

func TestManyPacketsConservation(t *testing.T) {
	// Deadlock-free XY routing: every packet must drain. (Fully
	// adaptive routing without a recovery scheme deadlocks under this
	// burst — see TestFullyAdaptiveCanDeadlock.)
	n := New(paramsWith(4, 4, 1, 2, routing.XY))
	total := 0
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	id := uint64(0)
	// Everybody sends to everybody.
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			id++
			ln := 1
			if id%2 == 0 {
				ln = 5
			}
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), ln, 0))
			total++
		}
	}
	for i := 0; i < 5000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("ejected %d of %d packets; resident=%d backlog=%d inflight=%d",
			ejected, total, len(n.ResidentPackets()), n.SourceBacklog(), n.FlitsInFlight())
	}
	if len(n.ResidentPackets()) != 0 || n.FlitsInFlight() != 0 || n.SourceBacklog() != 0 {
		t.Error("network should be empty after drain")
	}
}

func TestAllPacketsArriveAtCorrectDestination(t *testing.T) {
	n := New(paramsWith(3, 3, 1, 1, routing.XY))
	wrong := 0
	for node, nc := range n.NICs {
		node := node
		nc.OnEject = func(p *message.Packet) {
			if p.Dst != node {
				wrong++
			}
		}
	}
	id := uint64(0)
	for s := 0; s < 9; s++ {
		for d := 0; d < 9; d++ {
			if s == d {
				continue
			}
			id++
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Request, 1, 0))
		}
	}
	n.Run(3000)
	if wrong != 0 {
		t.Fatalf("%d packets ejected at the wrong node", wrong)
	}
}

func TestClaimLinkBlocksTraffic(t *testing.T) {
	n := New(paramsWith(2, 1, 1, 1, routing.XY))
	link := n.Routers[0].OutLinkID(topology.East)
	// A controller that claims the only eastbound link every cycle.
	n.Controller = claimController{link: link}
	p := message.NewPacket(1, 0, 1, message.Request, 1, 0)
	n.NICs[0].EnqueueSource(p)
	n.Run(50)
	if p.EjectTime >= 0 {
		t.Fatal("packet crossed a permanently claimed link")
	}
	n.Controller = NopController{}
	n.Run(20)
	if p.EjectTime < 0 {
		t.Fatal("packet should cross after claims stop")
	}
}

type claimController struct{ link int }

func (claimController) Name() string          { return "claim" }
func (c claimController) PreCycle(n *Network) { n.ClaimLink(c.link) }
func (claimController) PostCycle(*Network)    {}

func TestDoubleClaimPanics(t *testing.T) {
	n := New(paramsWith(2, 2, 1, 1, routing.XY))
	defer func() {
		if recover() == nil {
			t.Fatal("double link claim must panic")
		}
	}()
	n.ClaimLink(0)
	n.ClaimLink(0)
}

func TestDoubleEjectClaimPanics(t *testing.T) {
	n := New(paramsWith(2, 2, 1, 1, routing.XY))
	defer func() {
		if recover() == nil {
			t.Fatal("double eject claim must panic")
		}
	}()
	n.ClaimEject(1)
	n.ClaimEject(1)
}

func TestClaimsResetEachCycle(t *testing.T) {
	n := New(paramsWith(2, 2, 1, 1, routing.XY))
	src := n.Routers[n.ChannelLink(0).Src]
	n.ClaimLink(0)
	n.ClaimEject(3)
	if out := src.Claimed; out != 1<<n.ChannelLink(0).SrcPort {
		t.Fatalf("claiming link 0 left its source router claiming %05b", out)
	}
	if out := n.Routers[3].Claimed; out != 1<<topology.Local {
		t.Fatalf("claiming node 3's ejection port left it claiming %05b", out)
	}
	n.Step()
	if n.channels[0].claimed || n.ejectClaims[3] || src.Claimed != 0 {
		t.Fatal("claims must clear at cycle boundaries")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		n := New(paramsWith(4, 4, 6, 2, routing.FullyAdaptive))
		var lat []int64
		for _, nc := range n.NICs {
			nc.OnEject = func(p *message.Packet) { lat = append(lat, p.Latency()) }
		}
		id := uint64(0)
		for s := 0; s < 16; s++ {
			for k := 0; k < 4; k++ {
				id++
				d := int(id*7) % 16
				if d == s {
					d = (d + 1) % 16
				}
				n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), 1+int(id%2)*4, 0))
			}
		}
		n.Run(2000)
		return lat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic ejection count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic latency at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Ejection-queue backpressure: a stalled consumer must throttle the
// network without losing packets (they wait in buffers), and drain
// cleanly once unstalled.
func TestEjectionBackpressure(t *testing.T) {
	n := New(paramsWith(3, 1, 1, 1, routing.XY))
	dst := 2
	stalled := true
	n.NICs[dst].Consumer = nic.ConsumeFunc(func(int64, *message.Packet) bool { return !stalled })
	ejected := 0
	n.NICs[dst].OnEject = func(*message.Packet) { ejected++ }
	for i := uint64(1); i <= 12; i++ {
		n.NICs[0].EnqueueSource(message.NewPacket(i, 0, dst, message.Request, 1, 0))
	}
	n.Run(300)
	if ejected > 4 {
		t.Fatalf("ejected %d packets past a stalled consumer with capacity 4", ejected)
	}
	stalled = false
	n.Run(300)
	if ejected != 12 {
		t.Fatalf("after unstall ejected %d of 12", ejected)
	}
}

// Fully-adaptive minimal routing permits every turn, so a dense
// all-to-all burst creates cyclic buffer dependencies and the network
// deadlocks: a standing set of resident packets with zero link traffic.
// This is the disease the paper's schemes cure; the substrate must
// reproduce it faithfully.
func TestFullyAdaptiveCanDeadlock(t *testing.T) {
	n := New(paramsWith(4, 4, 1, 2, routing.FullyAdaptive))
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	id := uint64(0)
	total := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			id++
			ln := 1
			if id%2 == 0 {
				ln = 5
			}
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), ln, 0))
			total++
		}
	}
	n.Run(3000)
	stuckAt := len(n.ResidentPackets())
	if stuckAt == 0 {
		t.Skip("burst did not deadlock under this seed; nothing to assert")
	}
	// The stall must be a standing deadlock: no progress over a long
	// further window.
	before := ejected
	n.Run(2000)
	if ejected != before || len(n.ResidentPackets()) != stuckAt {
		t.Fatalf("stall was transient: ejected %d->%d, resident %d->%d",
			before, ejected, stuckAt, len(n.ResidentPackets()))
	}
	if n.FlitsInFlight() != 0 {
		t.Errorf("deadlocked network still has %d flits on links", n.FlitsInFlight())
	}
}

// After a clean drain, every bookkeeping structure must be back to its
// initial state: buffers empty, links and credit pipes clear, every
// downstream VC credit returned.
func TestQuiescenceAfterDrain(t *testing.T) {
	n := New(paramsWith(4, 4, 6, 2, routing.FullyAdaptive))
	delivered := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { delivered++ }
	}
	id := uint64(0)
	total := 0
	for s := 0; s < 16; s++ {
		for k := 0; k < 6; k++ {
			id++
			d := int(id*7) % 16
			if d == s {
				d = (d + 1) % 16
			}
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), 1+int(id%2)*4, 0))
			total++
		}
	}
	for i := 0; i < 20000 && delivered < total; i++ {
		n.Step()
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d", delivered, total)
	}
	n.Run(10) // let trailing credits land
	if err := n.VerifyQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// laneCtl stands in for a FastPass lane: at cycle at it claims link, and
// the next cycle it claims node dst's ejection port and lands pkt there.
type laneCtl struct {
	link, dst int
	at        int64
	pkt       *message.Packet
}

func (laneCtl) Name() string       { return "lane" }
func (laneCtl) PostCycle(*Network) {}
func (c laneCtl) PreCycle(n *Network) {
	switch n.cycle {
	case c.at:
		n.ClaimLink(c.link)
	case c.at + 1:
		n.ClaimEject(c.dst)
		n.NICs[c.dst].EjectFast(n.cycle, c.pkt)
	}
}

// A link the injector holds down refuses regular flits until it
// recovers, while a lane still claims it (the fault is no claim) and
// crosses (DESIGN.md §10.1); the fault reaches the source router as an
// out-port claim, and a stalled input port as a frozen port.
func TestFaultsBarRegularFlitsNotLanes(t *testing.T) {
	n := New(paramsWith(3, 1, 1, 1, routing.XY))
	link := n.Routers[0].OutLinkID(topology.East)
	n.AttachFaults(faults.NewInjector(faults.MustParsePlan(
		"linkfail:link="+strconv.Itoa(link)+",at=0,dur=40; portstall:node=2,port=4,at=0,dur=80"),
		len(n.Mesh.Links()), 3, n.Mesh.NumPorts(), 1))
	lane := message.NewPacket(2, 0, 1, message.Request, 1, 0)
	n.Controller = laneCtl{link: link, dst: 1, at: 10, pkt: lane}
	near := message.NewPacket(1, 0, 1, message.Request, 1, 0)
	far := message.NewPacket(3, 1, 2, message.Request, 1, 0)
	n.NICs[0].EnqueueSource(near)
	n.NICs[1].EnqueueSource(far)
	for n.cycle < 40 {
		n.Step()
		if out := n.Routers[0].Claimed; out != 1<<topology.East {
			t.Fatalf("cycle %d: router 0 claims %05b, want East only (the down link)", n.cycle-1, out)
		}
		if in := n.Routers[2].Stalled; in != 1<<topology.West {
			t.Fatalf("cycle %d: router 2 stalls %05b, want West only", n.cycle-1, in)
		}
		if got := n.channels[link].claimed; got != (n.cycle-1 == 10) {
			t.Fatalf("cycle %d: link claimed %v; only the lane claims it", n.cycle-1, got)
		}
	}
	if near.EjectTime >= 0 || lane.EjectTime != 11 {
		t.Fatalf("while the link is down: regular packet ejected at %d (want never), lane packet at %d (want 11)", near.EjectTime, lane.EjectTime)
	}
	n.Run(40)
	if near.EjectTime < 0 || far.EjectTime >= 0 {
		t.Fatalf("after the link recovers: regular packet ejected at %d (want some cycle), stalled packet at %d (want never)", near.EjectTime, far.EjectTime)
	}
	n.Run(20)
	if far.EjectTime < 80 {
		t.Fatalf("stalled packet ejected at %d, want once the stall ends at 80", far.EjectTime)
	}
	if out, in := n.Routers[0].Claimed, n.Routers[0].Stalled; out|in != 0 {
		t.Errorf("router 0 still claims %05b/%05b after every fault ended", out, in)
	}
}

// SourceBacklog sums un-injected packets across all NICs.
func (n *Network) SourceBacklog() int {
	t := 0
	for _, nc := range n.NICs {
		t += nc.TotalSourceDepth()
	}
	return t
}
