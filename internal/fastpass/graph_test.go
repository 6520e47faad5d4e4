package fastpass

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baselines/spin"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The §III-F fabric: FastPass routers on an irregular graph, with lanes
// circulating on its holistic walk (AttachWalk). Each run's outcome is
// pinned.

// ringGraph builds an n-node ring (the minimal irregular fabric where
// adaptive routing deadlocks).
func ringGraph(t *testing.T, n int) *topology.Mesh {
	t.Helper()
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return mustGraph(t, n, edges)
}

// chordal builds a richer irregular fabric: a ring with chords and a
// pendant triangle.
func chordal(t *testing.T) *topology.Mesh {
	t.Helper()
	return mustGraph(t, 9, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
		{0, 3}, {1, 4},
		{2, 6}, {6, 7}, {7, 8}, {8, 6},
	})
}

func mustGraph(t *testing.T, n int, edges [][2]int) *topology.Mesh {
	t.Helper()
	g, err := topology.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// graphNet builds a FastPass network with vcs VCs a port on g, with the
// walk controller attached when lanes is set (nil otherwise: the bare
// adaptive network).
func graphNet(g *topology.Mesh, vcs int, lanes bool) (*network.Network, *Controller) {
	n := network.New(network.Params{Mesh: g, Router: Config(vcs), EjectCap: 4})
	if !lanes {
		return n, nil
	}
	return n, AttachWalk(n)
}

// outcome is everything a run's lanes did, as the tests pin it.
type outcome struct {
	promoted, delivered, landingWaits int64 // the controller's lane counters
	ejected                           int   // packets ejected, lanes or not
	latency, fastCycles               int64 // summed over ejected packets
	resident                          int   // packets in routers, on links or on lanes
}

// watch counts every ejection of n into the returned outcome; call
// finish before comparing it.
func watch(n *network.Network) *outcome {
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

func (o *outcome) finish(n *network.Network, c *Controller) outcome {
	o.promoted, o.delivered, o.landingWaits = c.Counters.Promoted, c.Counters.FastEjects, c.Counters.Rejections
	held := map[*message.Packet]bool{}
	for _, p := range n.ResidentPackets() {
		held[p] = true
	}
	n.ForEachTransit(func(p *message.Packet) { held[p] = true })
	c.ForEachHeld(func(p *message.Packet) { held[p] = true })
	o.resident = len(held)
	return *o
}

func TestSinglePacketDelivery(t *testing.T) {
	g := chordal(t)
	n, _ := graphNet(g, 2, true)
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
	// Zero load: a cycle to inject, two a hop, the flit train behind the
	// head and a cycle to eject.
	if bound := int64(1 + 2*g.Distance(0, 8) + pkt.Len + 1); pkt.Latency() > bound {
		t.Errorf("zero-load latency %d over the bound %d", pkt.Latency(), bound)
	}
}

func TestAllToAllDrainsAndConserves(t *testing.T) {
	n, c := graphNet(chordal(t), 2, true)
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
		t.Fatalf("delivered %d of %d", o.ejected, total)
	}
	n.Run(10) // the consumers take the last ejections
	if err := n.VerifyQuiescent(); err != nil {
		t.Errorf("network not empty after drain: %v", err)
	}
	want := outcome{163, 163, 0, 360, 238561, 1297, 0}
	if got := o.finish(n, c); got != want {
		t.Errorf("chordal all-to-all outcome moved:\n got %+v\nwant %+v", got, want)
	}
}

// TestNewRejectsMaskOverflow: a graph runs only what needs no mesh
// geometry. A router config routing XY, YX or West-first, the TDM
// schedule of fastpass.Attach and the baselines refuse it at build time
// with one line, as the router's 64-VC request masks refuse 65 VCs.
func TestNewRejectsMaskOverflow(t *testing.T) {
	panicOf := func(build func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		build()
		return ""
	}
	netOf := func(cfg router.Config) func() {
		return func() { network.New(network.Params{Mesh: ringGraph(t, 4), Router: cfg, EjectCap: 4}) }
	}
	for _, tc := range []struct {
		name  string
		build func()
		want  string // panic substring; "" = accepted
	}{
		{"64 VCs", netOf(Config(64)), ""},
		{"65 VCs", netOf(Config(65)), "65 VCs per port, limit 64"},
		{"XY", netOf(router.TableII(2, false, routing.XY, routing.FullyAdaptive)), "router: XY routing needs a 2-D mesh"},
		{"YX", netOf(router.TableII(2, false, routing.FullyAdaptive, routing.YX)), "router: YX routing needs a 2-D mesh"},
		{"West-first", netOf(router.TableII(2, true, routing.WestFirst, routing.FullyAdaptive)), "router: WestFirst routing needs a 2-D mesh"},
		{"Attach", func() { n, _ := graphNet(ringGraph(t, 4), 2, false); Attach(n, Params{}) }, "fastpass.Attach's TDM lane schedule needs a 2-D mesh"},
		{"SPIN", func() { n, _ := graphNet(ringGraph(t, 4), 2, false); spin.Attach(n, spin.Params{}) }, "topology: spin needs a 2-D mesh"},
		{"AttachWalk", func() { graphNet(ringGraph(t, 4), 2, true) }, ""},
	} {
		got := panicOf(tc.build)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) || strings.Contains(got, "\n") {
			t.Errorf("%s: panic %q, want one line with %q", tc.name, got, tc.want)
		}
	}
}

// Sustained one-directional ring traffic deadlocks the bare adaptive
// network; the circulating lanes must rescue it (§III-F's purpose).
func TestLanesResolveRingDeadlock(t *testing.T) {
	load := func(n *network.Network) int {
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
	// Control: no controller.
	bare, _ := graphNet(ringGraph(t, 8), 1, false)
	bareDelivered := 0
	for _, nc := range bare.NICs {
		nc.OnEject = func(*message.Packet) { bareDelivered++ }
	}
	bareTotal := load(bare)
	bare.Run(120000)
	if bareDelivered >= bareTotal {
		t.Fatalf("bare ring delivered %d of %d: the control did not deadlock", bareDelivered, bareTotal)
	}

	// FastPass lanes on: everything must drain.
	fp, c := graphNet(ringGraph(t, 8), 1, true)
	o := watch(fp)
	fpTotal := load(fp)
	for i := 0; i < 600000 && o.ejected < fpTotal; i++ {
		fp.Step()
	}
	if o.ejected != fpTotal {
		t.Fatalf("lanes failed to resolve ring deadlock: %d of %d (promoted %d)",
			o.ejected, fpTotal, c.Counters.Promoted)
	}
	want := outcome{1195, 1195, 0, 1200, 4323510, 7163, 0}
	if got := o.finish(fp, c); got != want {
		t.Errorf("ring-8 outcome moved:\n got %+v\nwant %+v", got, want)
	}
	t.Logf("bare ring stuck at %d/%d; lanes delivered %d/%d (promoted %d, landing waits %d)",
		bareDelivered, bareTotal, o.ejected, fpTotal, c.Counters.Promoted, c.Counters.Rejections)
}

// Lane claims must never collide — the network's double-claim panic is
// armed throughout this stress run on random graphs of 5-port routers.
func TestLanesNeverCollideOnRandomGraphs(t *testing.T) {
	pinned := [10]outcome{
		{3, 3, 0, 35, 485, 26, 0}, {2, 2, 0, 34, 483, 17, 0}, {2, 2, 0, 21, 223, 6, 0},
		{4, 4, 0, 35, 440, 20, 0}, {1, 1, 0, 12, 107, 5, 0}, {6, 6, 0, 34, 349, 28, 0},
		{6, 6, 0, 45, 635, 76, 0}, {1, 1, 0, 28, 379, 9, 0}, {2, 2, 0, 16, 145, 6, 0},
		{2, 2, 0, 21, 221, 15, 0},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nNodes := 5 + rng.Intn(8)
		var edges [][2]int
		have := map[[2]int]bool{}
		deg := make([]int, nNodes)
		add := func(a, b int) {
			k := [2]int{min(a, b), max(a, b)}
			if a == b || have[k] || deg[a] == 4 || deg[b] == 4 {
				return
			}
			have[k] = true
			deg[a]++
			deg[b]++
			edges = append(edges, [2]int{a, b})
		}
		for v := 1; v < nNodes; v++ {
			u := rng.Intn(v)
			for deg[u] == 4 {
				u = (u + 1) % v
			}
			add(v, u)
		}
		for e := 0; e < nNodes; e++ {
			add(rng.Intn(nNodes), rng.Intn(nNodes))
		}
		n, c := graphNet(mustGraph(t, nNodes, edges), 2, true)
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
		if got := o.finish(n, c); got != pinned[trial] {
			t.Errorf("trial %d outcome moved:\n got %+v\nwant %+v", trial, got, pinned[trial])
		}
	}
}

// The chordal run is cut at a fixed cycle, so the pinned outcome also
// sees packets still resident.
func TestGraphDeterminism(t *testing.T) {
	run := func() outcome {
		n, c := graphNet(chordal(t), 2, true)
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
		return o.finish(n, c)
	}
	want := outcome{4, 3, 0, 36, 651, 21, 18}
	if o1, o2 := run(), run(); o1 != o2 || o1 != want {
		t.Fatalf("chordal outcome moved or is non-deterministic:\n got %+v\n and %+v\nwant %+v", o1, o2, want)
	}
}

// AttachWalk puts one lane per 16 walk links, never fewer than one, and
// WalkLanes caps any count at the spacing bound: heads MaxPktLen+2
// links apart.
func TestLaneSpacingBound(t *testing.T) {
	for _, g := range []*topology.Mesh{ringGraph(t, 4), ringGraph(t, 20), chordal(t), topology.NewMesh(4, 4)} {
		_, c := graphNet(g, 2, true)
		walk := len(c.lanes.walk)
		if want := max(1, walk/16); c.lanes.Len() != want {
			t.Errorf("%d-link walk: %d lanes, want %d", walk, c.lanes.Len(), want)
		}
		c.lanes.Install(c.lanes.walk, 100)
		if bound := walk / (MaxPktLen + 2); c.lanes.Len() > bound {
			t.Errorf("%d-link walk: %d lanes past the spacing bound %d", walk, c.lanes.Len(), bound)
		}
	}
}

// Promotions respect the NIC reservation: a stalled consumer fills its
// ejection queue and then holds lane promotions toward it to the one
// request-class reservation, instead of overflowing; everything drains
// once it consumes again.
func TestLandingBackpressure(t *testing.T) {
	n, c := graphNet(chordal(t), 2, true)
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
	for range 30000 {
		n.Step()
		if riding := c.Counters.Promoted - c.Counters.FastEjects; riding > 1 || n.NICs[dst].Reservations(message.Request) > 1 {
			t.Fatalf("cycle %d: %d lane packets toward the stalled node past its one reservation", n.Cycle(), riding)
		}
	}
	want := outcome{2, 1, 1, 4, 14, 5, 76}
	if got := o.finish(n, c); got != want {
		t.Errorf("stalled outcome moved:\n got %+v\nwant %+v", got, want)
	}
	stalled = false
	for i := 0; i < 300000 && o.ejected < total; i++ {
		n.Step()
	}
	if o.ejected != total {
		t.Fatalf("delivered %d of %d after unstall", o.ejected, total)
	}
	want = outcome{11, 11, 1, 80, 2282484, 68, 0}
	if got := o.finish(n, c); got != want {
		t.Errorf("drained outcome moved:\n got %+v\nwant %+v", got, want)
	}
}

// nicStall adapts a predicate to the nic.Consumer interface.
type nicStall func() bool

func (f nicStall) TryConsume(int64, *message.Packet) bool { return f() }
