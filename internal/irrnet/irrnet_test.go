package irrnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/topology"
)

// ring builds an n-node ring (the minimal irregular fabric where
// adaptive routing deadlocks).
func ring(t *testing.T, n int) *topology.Irregular {
	t.Helper()
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	g, err := topology.NewIrregular(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chordal builds a richer irregular fabric.
func chordal(t *testing.T) *topology.Irregular {
	t.Helper()
	g, err := topology.NewIrregular(9, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
		{0, 3}, {1, 4},
		{2, 6}, {6, 7}, {7, 8}, {8, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// outcome is everything a run's lanes did, as the tests pin it: the
// numbers in the tables below were generated on the commit before irrnet
// and the self-healing mesh controller shared one walk-lane engine.
type outcome struct {
	promoted, delivered, landingWaits int64 // the Network's lane counters
	ejected                           int   // packets ejected, lanes or not
	latency, fastCycles               int64 // summed over ejected packets
	resident                          int   // ResidentPackets at the end
}

// watch counts every ejection of n into the returned outcome; call
// finish before comparing it.
func watch(n *Network) *outcome {
	o := &outcome{}
	for _, nc := range n.NICs {
		nc.OnEject = func(p *message.Packet) {
			o.ejected++
			o.latency += p.Latency()
			o.fastCycles += p.FastCycles
		}
	}
	return o
}

func (o *outcome) finish(n *Network) outcome {
	o.promoted, o.delivered, o.landingWaits = n.Promoted, n.Delivered, n.LandingWaits
	o.resident = n.ResidentPackets()
	return *o
}

func TestSinglePacketDelivery(t *testing.T) {
	g := chordal(t)
	n := New(g, Params{})
	var got *message.Packet
	for _, nc := range n.NICs {
		nc.OnEject = func(p *message.Packet) { got = p }
	}
	pkt := message.NewPacket(1, 0, 8, message.Request, 5, 0)
	n.NICs[0].EnqueueSource(pkt)
	n.Run(200)
	if got != pkt {
		t.Fatal("packet not delivered")
	}
	if pkt.Latency() > 60 {
		t.Errorf("zero-load latency %d too high", pkt.Latency())
	}
}

func TestAllToAllDrainsAndConserves(t *testing.T) {
	g := chordal(t)
	n := New(g, Params{})
	o := watch(n)
	total := 0
	id := uint64(0)
	for round := 0; round < 5; round++ {
		for s := 0; s < 9; s++ {
			for d := 0; d < 9; d++ {
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
	}
	for i := 0; i < 100000 && o.ejected < total; i++ {
		n.Step()
	}
	if o.ejected != total {
		t.Fatalf("delivered %d of %d (resident %d, backlog %d)",
			o.ejected, total, n.ResidentPackets(), n.SourceBacklog())
	}
	if n.ResidentPackets() != 0 || n.SourceBacklog() != 0 {
		t.Error("network should be empty after drain")
	}
	want := outcome{57, 57, 0, 360, 81536, 430, 0}
	if got := o.finish(n); got != want {
		t.Errorf("chordal all-to-all outcome moved:\n got %+v\nwant %+v", got, want)
	}
}

// TestNewRejectsMaskOverflow: the arbiters keep one request bit per VC,
// so New accepts 64 VCs a port and panics, naming the bound, at 65.
func TestNewRejectsMaskOverflow(t *testing.T) {
	for _, tc := range []struct {
		vcs  int
		want string // panic substring; "" = accepted
	}{
		{64, ""},
		{65, "65 VCs on 3 ports exceed the 64-bit request masks"},
	} {
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			New(ring(t, 4), Params{VCs: tc.vcs})
			return ""
		}()
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("VCs %d: panic %q, want %q", tc.vcs, got, tc.want)
		}
	}
}

// Sustained one-directional ring traffic deadlocks the bare adaptive
// network; the circulating lanes must rescue it (§III-F's purpose).
func TestLanesResolveRingDeadlock(t *testing.T) {
	load := func(n *Network) int {
		total := 0
		id := uint64(0)
		for round := 0; round < 150; round++ {
			for s := 0; s < 8; s++ {
				d := (s + 3) % 8
				id++
				ln := 1
				if id%2 == 0 {
					ln = 5
				}
				n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Request, ln, 0))
				total++
			}
		}
		return total
	}
	// Control: lanes off.
	bare := New(ring(t, 8), Params{VCs: 1, DisableLanes: true})
	bareDelivered := 0
	for _, nc := range bare.NICs {
		nc.OnEject = func(*message.Packet) { bareDelivered++ }
	}
	bareTotal := load(bare)
	bare.Run(120000)
	if bareDelivered == bareTotal {
		t.Skip("bare ring did not deadlock under this seed; nothing to rescue")
	}

	// FastPass lanes on: everything must drain.
	fp := New(ring(t, 8), Params{VCs: 1})
	o := watch(fp)
	fpTotal := load(fp)
	for i := 0; i < 600000 && o.ejected < fpTotal; i++ {
		fp.Step()
	}
	if o.ejected != fpTotal {
		t.Fatalf("lanes failed to resolve ring deadlock: %d of %d (promoted %d)",
			o.ejected, fpTotal, fp.Promoted)
	}
	want := outcome{1195, 1195, 0, 1200, 4323510, 7163, 0}
	if got := o.finish(fp); got != want {
		t.Errorf("ring-8 outcome moved:\n got %+v\nwant %+v", got, want)
	}
	t.Logf("bare ring stuck at %d/%d; lanes delivered %d/%d (promoted %d, landing waits %d)",
		bareDelivered, bareTotal, o.ejected, fpTotal, fp.Promoted, fp.LandingWaits)
}

// Lane claims must never collide — the built-in double-claim panic is
// armed throughout this stress run on random graphs.
func TestLanesNeverCollideOnRandomGraphs(t *testing.T) {
	pinned := [10]outcome{
		{5, 5, 0, 35, 497, 67, 0}, {4, 4, 0, 34, 434, 35, 0}, {4, 4, 0, 21, 222, 13, 0},
		{7, 7, 0, 35, 440, 55, 0}, {2, 2, 0, 12, 101, 8, 0}, {5, 5, 0, 34, 394, 55, 0},
		{8, 8, 0, 45, 643, 105, 0}, {4, 4, 0, 28, 325, 24, 0}, {2, 2, 0, 16, 145, 6, 0},
		{3, 3, 0, 21, 220, 21, 0},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nNodes := 5 + rng.Intn(8)
		var edges [][2]int
		have := map[[2]int]bool{}
		add := func(a, b int) {
			if a == b {
				return
			}
			k := [2]int{a, b}
			if a > b {
				k = [2]int{b, a}
			}
			if have[k] {
				return
			}
			have[k] = true
			edges = append(edges, [2]int{a, b})
		}
		for v := 1; v < nNodes; v++ {
			add(v, rng.Intn(v))
		}
		for e := 0; e < nNodes; e++ {
			add(rng.Intn(nNodes), rng.Intn(nNodes))
		}
		g, err := topology.NewIrregular(nNodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		n := New(g, Params{Lanes: 3})
		o := watch(n)
		total := 0
		id := uint64(0)
		for round := 0; round < 4; round++ {
			for s := 0; s < nNodes; s++ {
				d := rng.Intn(nNodes)
				if d == s {
					continue
				}
				id++
				n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), 1+int(id%2)*4, 0))
				total++
			}
		}
		for i := 0; i < 60000 && o.ejected < total; i++ {
			n.Step()
		}
		if o.ejected != total {
			t.Fatalf("trial %d: delivered %d of %d", trial, o.ejected, total)
		}
		if got := o.finish(n); got != pinned[trial] {
			t.Errorf("trial %d outcome moved:\n got %+v\nwant %+v", trial, got, pinned[trial])
		}
	}
}

// The chordal run is cut at a fixed cycle, so the pinned outcome also
// sees packets still resident.
func TestDeterminism(t *testing.T) {
	run := func() outcome {
		g := chordal(t)
		n := New(g, Params{})
		o := watch(n)
		id := uint64(0)
		for s := 0; s < 9; s++ {
			for k := 0; k < 6; k++ {
				id++
				d := int(id*5) % 9
				if d == s {
					d = (d + 1) % 9
				}
				n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Request, 1+int(id%2)*4, 0))
			}
		}
		n.Run(30)
		return o.finish(n)
	}
	want := outcome{3, 2, 0, 35, 642, 18, 26}
	if o1, o2 := run(), run(); o1 != o2 || o1 != want {
		t.Fatalf("chordal outcome moved or is non-deterministic:\n got %+v\n and %+v\nwant %+v", o1, o2, want)
	}
}

func TestLaneSpacingBound(t *testing.T) {
	g := ring(t, 4) // 8 directed links
	n := New(g, Params{Lanes: 100})
	if n.lanes.Len() > 1 {
		t.Errorf("lane count %d exceeds the walk-spacing bound for 8 links", n.lanes.Len())
	}
}

// Promotions respect the landing capacity: a stalled consumer fills the
// landing register, after which lanes stop promoting toward that node
// instead of overflowing it.
func TestLandingBackpressure(t *testing.T) {
	g := chordal(t)
	n := New(g, Params{LandingCap: 2})
	dst := 4
	stalled := true
	n.NICs[dst].Consumer = nicStall(func() bool { return !stalled })
	o := watch(n)
	total := 0
	id := uint64(0)
	for round := 0; round < 10; round++ {
		for s := 0; s < 9; s++ {
			if s == dst {
				continue
			}
			id++
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, dst, message.Request, 1, 0))
			total++
		}
	}
	n.Run(30000)
	if got := n.lanes.Landed(dst) + n.landingRsv[dst]; got > 2 {
		t.Fatalf("landing register overflowed: %d slots used", got)
	}
	want := outcome{2, 1, 1, 4, 14, 5, 76}
	if got := o.finish(n); got != want {
		t.Errorf("stalled outcome moved:\n got %+v\nwant %+v", got, want)
	}
	stalled = false
	for i := 0; i < 300000 && o.ejected < total; i++ {
		n.Step()
	}
	if o.ejected != total {
		t.Fatalf("delivered %d of %d after unstall", o.ejected, total)
	}
	want = outcome{10, 10, 1, 80, 2282478, 57, 0}
	if got := o.finish(n); got != want {
		t.Errorf("drained outcome moved:\n got %+v\nwant %+v", got, want)
	}
}

// nicStall adapts a predicate to the nic.Consumer interface.
type nicStall func() bool

func (f nicStall) TryConsume(int64, *message.Packet) bool { return f() }

// ResidentPackets counts packets buffered in routers plus those riding
// lanes or parked in landing registers.
func (n *Network) ResidentPackets() int {
	c := 0
	for _, r := range n.routers {
		for _, port := range r.inputs {
			for _, vc := range port {
				c += vc.Len()
			}
		}
	}
	n.lanes.ForEachHeld(func(*message.Packet) { c++ })
	return c
}

// SourceBacklog counts packets waiting at source NICs.
func (n *Network) SourceBacklog() int {
	t := 0
	for _, nc := range n.NICs {
		t += nc.TotalSourceDepth()
	}
	return t
}
