package router

import (
	"reflect"
	"testing"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/spare"
	"repro/internal/topology"
)

// fakeEnv is a minimal Env that records outgoing flits/credits and
// models an always-willing NIC.
type fakeEnv struct {
	cycle     int64
	sentFlits []sentFlit
	credits   []sentCredit
	ejected   []message.Flit
	ejectDeny map[message.Class]bool
	pendingEj int
}

type sentFlit struct {
	link  int
	flit  message.Flit
	outVC int
}

type sentCredit struct {
	link int
	vc   int
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{ejectDeny: map[message.Class]bool{}}
}

func (f *fakeEnv) Cycle() int64 { return f.cycle }
func (f *fakeEnv) SendFlit(id int, fl message.Flit, outVC int) {
	f.sentFlits = append(f.sentFlits, sentFlit{id, fl, outVC})
}
func (f *fakeEnv) SendVCFree(id, vc int)                  { f.credits = append(f.credits, sentCredit{id, vc}) }
func (f *fakeEnv) CanEject(n int, p *message.Packet) bool { return !f.ejectDeny[p.Class] }
func (f *fakeEnv) BeginEject(n int, p *message.Packet)    { f.pendingEj++ }
func (f *fakeEnv) CancelEject(n int, p *message.Packet)   { f.pendingEj-- }
func (f *fakeEnv) EjectFlit(n int, fl message.Flit)       { f.ejected = append(f.ejected, fl) }
func (f *fakeEnv) WakeRouter(int)                         {}

func adaptiveCfg(vns, vcs int) Config {
	algs := make([]routing.Algorithm, vcs)
	for i := range algs {
		algs[i] = routing.FullyAdaptive
	}
	classVN := func(c message.Class) int { return 0 }
	if vns == int(message.NumClasses) {
		classVN = func(c message.Class) int { return int(c) }
	}
	return Config{
		NumVNs: vns, VCsPerVN: vcs, BufFlits: 5, InjQueueFlits: 10,
		VCAlgorithms: algs, ClassVN: classVN,
	}
}

func TestConfigValidate(t *testing.T) {
	good := adaptiveCfg(1, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.VCAlgorithms = bad.VCAlgorithms[:1]
	if err := bad.Validate(); err == nil {
		t.Error("mismatched VCAlgorithms accepted")
	}
	bad2 := good
	bad2.NumVNs = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero VNs accepted")
	}
	bad3 := good
	bad3.ClassVN = nil
	if err := bad3.Validate(); err == nil {
		t.Error("nil ClassVN accepted")
	}
	bad4 := good
	bad4.ClassVN = func(message.Class) int { return 7 }
	if err := bad4.Validate(); err == nil {
		t.Error("out-of-range ClassVN accepted")
	}
	bad5 := good
	bad5.BufFlits = 0
	if err := bad5.Validate(); err == nil {
		t.Error("zero buffer accepted")
	}
}

func TestRouterLinkWiring(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(1, 1), m, adaptiveCfg(1, 1), env)
	for _, d := range []topology.Direction{topology.North, topology.East, topology.South, topology.West} {
		if r.OutLinkID(d) < 0 {
			t.Errorf("center router missing out link %v", d)
		}
		if r.InLinkID(d) < 0 {
			t.Errorf("center router missing in link %v", d)
		}
	}
	corner := New(m.ID(0, 0), m, adaptiveCfg(1, 1), env)
	if corner.OutLinkID(topology.North) >= 0 || corner.OutLinkID(topology.West) >= 0 {
		t.Error("corner router should have no North/West links")
	}
}

// A packet injected at a router should be routed out the productive
// port, consuming the downstream VC, and the head flit should carry the
// allocated outVC.
func TestInjectionToLinkTransmission(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(0, 0), m, adaptiveCfg(1, 2), env)
	p := message.NewPacket(1, r.ID, m.ID(2, 0), message.Request, 2, 0)
	if !r.InjectPacket(p) {
		t.Fatal("injection refused")
	}
	r.Step() // cycle 0: VA + SA, head flit leaves
	env.cycle++
	r.Step() // cycle 1: body flit leaves
	if len(env.sentFlits) != 2 {
		t.Fatalf("sent %d flits, want 2", len(env.sentFlits))
	}
	east := r.OutLinkID(topology.East)
	for i, sf := range env.sentFlits {
		if sf.link != east {
			t.Errorf("flit %d on link %d, want East link %d", i, sf.link, east)
		}
		if sf.flit.Seq != i {
			t.Errorf("flit %d has seq %d", i, sf.flit.Seq)
		}
	}
	if p.InjectTime != 0 {
		t.Errorf("InjectTime = %d, want 0", p.InjectTime)
	}
	if p.Hops != 1 {
		t.Errorf("Hops = %d, want 1", p.Hops)
	}
	// The downstream VC the head claimed must now be busy.
	if r.DownstreamVCFree(topology.East, env.sentFlits[0].outVC) {
		t.Error("allocated downstream VC still marked free")
	}
}

// VCT: a packet must not begin transmission until a whole downstream VC
// is free; with both VCs claimed the head stalls.
func TestVCTBlocksWhenNoDownstreamVC(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(0, 0), m, adaptiveCfg(1, 1), env)
	// Only one route out for a (2,0) destination from (0,0)? East and
	// nothing else — dst shares the row.
	p1 := message.NewPacket(1, r.ID, m.ID(2, 0), message.Request, 5, 0)
	p2 := message.NewPacket(2, r.ID, m.ID(2, 0), message.Request, 5, 0)
	r.InjectPacket(p1)
	r.InjectPacket(p2)
	for i := 0; i < 6; i++ {
		r.Step()
		env.cycle++
	}
	// p1's five flits go out; p2 must stall (single VC downstream, no
	// credit return in this fake).
	if len(env.sentFlits) != 5 {
		t.Fatalf("sent %d flits, want 5 (second packet must stall)", len(env.sentFlits))
	}
	// Return the credit and the second packet should move.
	r.MarkVCFree(topology.East, 0)
	for i := 0; i < 6; i++ {
		r.Step()
		env.cycle++
	}
	if len(env.sentFlits) != 10 {
		t.Errorf("after credit, sent %d flits, want 10", len(env.sentFlits))
	}
}

// A flit arriving for the local node must be ejected, and the upstream
// credit must fire when the tail leaves the VC.
func TestNetworkArrivalEjection(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(1, 1), m, adaptiveCfg(1, 1), env)
	p := message.NewPacket(3, m.ID(0, 1), r.ID, message.Response, 2, 0)
	r.DeliverHead(topology.West, 0, p)
	r.Step()
	env.cycle++
	r.Deliver(topology.West, 0, message.Flit{Pkt: p, Seq: 1}, env.cycle)
	r.Step()
	env.cycle++
	r.Step()
	if len(env.ejected) != 2 {
		t.Fatalf("ejected %d flits, want 2", len(env.ejected))
	}
	if len(env.credits) != 1 {
		t.Fatalf("credits = %v, want exactly one", env.credits)
	}
	if env.credits[0].link != r.InLinkID(topology.West) || env.credits[0].vc != 0 {
		t.Errorf("credit = %+v, want West in-link vc 0", env.credits[0])
	}
	if env.pendingEj != 1 {
		t.Errorf("BeginEject count = %d, want 1", env.pendingEj)
	}
}

// Ejection must stall when the NIC refuses the class.
func TestEjectionBlockedByNIC(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	env.ejectDeny[message.Request] = true
	r := New(m.ID(1, 1), m, adaptiveCfg(1, 1), env)
	p := message.NewPacket(4, m.ID(0, 1), r.ID, message.Request, 1, 0)
	r.DeliverHead(topology.West, 0, p)
	for i := 0; i < 4; i++ {
		r.Step()
		env.cycle++
	}
	if len(env.ejected) != 0 {
		t.Fatal("packet ejected despite NIC refusal")
	}
	env.ejectDeny[message.Request] = false
	r.Step()
	if len(env.ejected) != 1 {
		t.Fatal("packet should eject once NIC accepts")
	}
}

// Claimed links must block switch allocation (FastPass lookahead
// priority).
func TestClaimedLinkStallsRegularTraffic(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(0, 0), m, adaptiveCfg(1, 1), env)
	p := message.NewPacket(5, r.ID, m.ID(2, 0), message.Request, 1, 0)
	r.InjectPacket(p)
	r.Claimed = 1 << topology.East
	r.Step()
	if len(env.sentFlits) != 0 {
		t.Fatal("flit crossed a claimed link")
	}
	r.Claimed = 0
	env.cycle++
	r.Step()
	if len(env.sentFlits) != 1 {
		t.Fatal("flit should cross after claim released")
	}
}

// Claimed ejection ports must stall regular ejection (Qn 3).
func TestClaimedEjectionStallsRegularEjection(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(1, 1), m, adaptiveCfg(1, 1), env)
	p := message.NewPacket(6, m.ID(0, 1), r.ID, message.Response, 1, 0)
	r.DeliverHead(topology.West, 0, p)
	r.Claimed = 1 << topology.Local
	r.Step()
	env.cycle++
	r.Step()
	if len(env.ejected) != 0 {
		t.Fatal("ejected through a claimed port")
	}
	r.Claimed = 0
	r.Step()
	if len(env.ejected) != 1 {
		t.Fatal("should eject after claim released")
	}
}

// RemoveHeadPacket must free the downstream VC the entry had claimed
// and credit upstream for network ports.
func TestRemoveHeadPacketReleasesResources(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(1, 1), m, adaptiveCfg(1, 1), env)
	p := message.NewPacket(7, m.ID(0, 1), m.ID(2, 1), message.Request, 1, 0)
	r.DeliverHead(topology.West, 0, p)
	env.cycle++
	// Allocate but forbid transmission by claiming the East link.
	r.Claimed = 1 << topology.East
	r.Step()
	if r.DownstreamVCFree(topology.East, 0) {
		t.Fatal("East VC should be claimed after VA")
	}
	got := r.RemoveHeadPacket(topology.West, 0)
	if got != p {
		t.Fatalf("RemoveHeadPacket = %v, want %v", got, p)
	}
	if !r.DownstreamVCFree(topology.East, 0) {
		t.Error("downstream VC not released")
	}
	if len(env.credits) != 1 {
		t.Errorf("credits = %v, want 1 (upstream VC freed)", env.credits)
	}
	if r.RemoveHeadPacket(topology.West, 0) != nil {
		t.Error("empty VC should return nil")
	}
}

func TestInsertPacketRespectsCapacity(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(1, 1), m, adaptiveCfg(1, 1), env)
	a := message.NewPacket(8, 0, 5, message.Request, 5, 0)
	b := message.NewPacket(9, 0, 5, message.Request, 1, 0)
	if !r.InsertPacket(topology.West, 0, a) {
		t.Fatal("insert into empty VC failed")
	}
	if r.InsertPacket(topology.West, 0, b) {
		t.Fatal("single-packet VC accepted a second packet")
	}
	r.InsertOverflow(topology.Local, int(message.Request), b)
	if r.VCFor(topology.Local, int(message.Request)).Len() != 1 {
		t.Error("overflow insert missing")
	}
}

// Two packets contending for one output port must serialize through the
// switch (one flit per output per cycle) but both eventually leave.
func TestSwitchContentionSerializes(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(1, 0), m, adaptiveCfg(1, 2), env)
	dst := m.ID(2, 0) // East of the router
	a := message.NewPacket(11, m.ID(0, 0), dst, message.Request, 1, 0)
	b := message.NewPacket(12, r.ID, dst, message.Request, 1, 0)
	r.DeliverHead(topology.West, 0, a)
	r.InjectPacket(b)
	r.Step()
	if len(env.sentFlits) != 1 {
		t.Fatalf("one output port granted %d flits in a cycle", len(env.sentFlits))
	}
	env.cycle++
	r.Step()
	if len(env.sentFlits) != 2 {
		t.Fatal("loser should win the next cycle")
	}
	if env.sentFlits[0].outVC == env.sentFlits[1].outVC {
		t.Error("two packets allocated the same downstream VC")
	}
}

func TestResidentPackets(t *testing.T) {
	m := topology.NewMesh(3, 3)
	env := newFakeEnv()
	r := New(m.ID(1, 1), m, adaptiveCfg(1, 1), env)
	if got := r.ResidentPackets(); len(got) != 0 {
		t.Fatalf("fresh router has %d resident packets", len(got))
	}
	p := message.NewPacket(13, 0, 5, message.Request, 2, 0)
	r.InsertPacket(topology.West, 0, p)
	q := message.NewPacket(14, r.ID, 5, message.Response, 1, 0)
	r.InjectPacket(q)
	got := r.ResidentPackets()
	if len(got) != 2 {
		t.Fatalf("resident = %d, want 2", len(got))
	}
}

// TestReleasedSlabServesNextBuild: Release zeroes what a build carved
// and its overflow chunk, a later NewAll that fits carves a prefix of
// the same arrays (and its first queue to take a window takes the
// chunk), and one the spare is too small for makes its own.
func TestReleasedSlabServesNextBuild(t *testing.T) {
	spareRouters, spareVCs, spareIndex = spare.Store[Router]{}, spare.Store[VC]{}, spare.Store[*Router]{}
	spareOverflow, spareChunkLists = spare.Store[Entry]{}, spare.Store[[]Entry]{}
	env, cfg := newFakeEnv(), adaptiveCfg(1, 2)
	// Five packets take a 4-entry window and outgrow it.
	backlog := func(r *Router) {
		for id := range uint64(injWindow + 1) {
			if !r.InjectPacket(message.NewPacket(id+1, r.ID, 0, message.Request, 1, 0)) {
				t.Fatal("injection refused")
			}
		}
	}
	big := NewAll(topology.NewMesh(4, 4), cfg, env)
	backlog(big[5])
	a, chunk := big[0].tab.arrays, big[0].tab.overflow[0][:cap(big[0].tab.overflow[0])]
	Release(big)
	if !allZero(a.routers) || !allZero(a.vcs) || !allZero(chunk) {
		t.Fatal("Release left the slab's routers, VCs or overflow chunk dirty")
	}
	small := NewAll(topology.NewMesh(2, 2), cfg, env)
	if small[0] != &a.routers[0] || &small[0].Inputs[0].VCs[0] != &a.vcs[0] {
		t.Error("a smaller build did not carve the spare slab's prefix")
	}
	if backlog(small[1]); &small[1].tab.overflow[0][:1][0] != &chunk[0] {
		t.Error("a queue taking its window did not take the released overflow chunk")
	}
	Release(small)
	if larger := NewAll(topology.NewMesh(8, 8), cfg, env); larger[0] == &a.routers[0] {
		t.Error("a build larger than the spare carved it")
	}
}

func allZero[T any](xs []T) bool {
	for i := range xs {
		if !reflect.ValueOf(xs[i]).IsZero() {
			return false
		}
	}
	return true
}

// TestRouteResolvedPerTopology: a build resolves each algorithm group's
// routing function once, from the algorithm and the topology — a mesh's
// to the algorithm's own, a graph's FullyAdaptive to RouteGraph.
func TestRouteResolvedPerTopology(t *testing.T) {
	graph, err := topology.NewGraph(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	escape := adaptiveCfg(1, 2)
	escape.VCAlgorithms = []routing.Algorithm{routing.WestFirst, routing.FullyAdaptive}
	for _, tc := range []struct {
		name string
		mesh *topology.Mesh
		cfg  Config
		want []routing.Func
	}{
		{"mesh", topology.NewMesh(3, 3), adaptiveCfg(1, 2), []routing.Func{routing.RouteFullyAdaptive}},
		{"mesh, escape VC", topology.NewMesh(3, 3), escape, []routing.Func{routing.RouteWestFirst, routing.RouteFullyAdaptive}},
		{"graph", graph, adaptiveCfg(1, 2), []routing.Func{routing.RouteGraph}},
	} {
		tab := New(1, tc.mesh, tc.cfg, newFakeEnv()).tab
		if tab.groups != len(tc.want) {
			t.Fatalf("%s: %d algorithm groups, want %d", tc.name, tab.groups, len(tc.want))
		}
		for g, want := range tc.want {
			if reflect.ValueOf(tab.route[g]).Pointer() != reflect.ValueOf(want).Pointer() {
				t.Errorf("%s: group %d resolved to the wrong routing function", tc.name, g)
			}
		}
	}
}
