package router

import (
	"testing"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fakeEnv is a minimal Env that records outgoing flits/credits and
// models an always-willing NIC.
type fakeEnv struct {
	cycle      int64
	sentFlits  []sentFlit
	credits    []sentCredit
	ejected    []message.Flit
	claimLinks map[int]bool
	claimEject map[int]bool
	ejectDeny  map[message.Class]bool
	pendingEj  int
	// stalledPorts marks fault-frozen input ports (InputStalled).
	stalledPorts map[int]bool
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
	return &fakeEnv{
		claimLinks: map[int]bool{},
		claimEject: map[int]bool{},
		ejectDeny:  map[message.Class]bool{},
	}
}

func (f *fakeEnv) Cycle() int64            { return f.cycle }
func (f *fakeEnv) LinkClaimed(id int) bool { return f.claimLinks[id] }
func (f *fakeEnv) EjectClaimed(n int) bool { return f.claimEject[n] }
func (f *fakeEnv) SendFlit(id int, fl message.Flit, outVC int) {
	f.sentFlits = append(f.sentFlits, sentFlit{id, fl, outVC})
}
func (f *fakeEnv) SendVCFree(id, vc int)                  { f.credits = append(f.credits, sentCredit{id, vc}) }
func (f *fakeEnv) CanEject(n int, p *message.Packet) bool { return !f.ejectDeny[p.Class] }
func (f *fakeEnv) BeginEject(n int, p *message.Packet)    { f.pendingEj++ }
func (f *fakeEnv) CancelEject(n int, p *message.Packet)   { f.pendingEj-- }
func (f *fakeEnv) EjectFlit(n int, fl message.Flit)       { f.ejected = append(f.ejected, fl) }
func (f *fakeEnv) WakeRouter(int)                         {}
func (f *fakeEnv) InputStalled(n, port int) bool {
	return f.stalledPorts != nil && f.stalledPorts[port]
}

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
	r.DeliverBody(topology.West, 0, p)
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
	env.claimLinks[r.OutLinkID(topology.East)] = true
	r.Step()
	if len(env.sentFlits) != 0 {
		t.Fatal("flit crossed a claimed link")
	}
	env.claimLinks[r.OutLinkID(topology.East)] = false
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
	env.claimEject[r.ID] = true
	r.Step()
	env.cycle++
	r.Step()
	if len(env.ejected) != 0 {
		t.Fatal("ejected through a claimed port")
	}
	env.claimEject[r.ID] = false
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
	env.claimLinks[r.OutLinkID(topology.East)] = true
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
