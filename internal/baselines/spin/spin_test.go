package spin

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/topology"
	"repro/internal/trace"
)

// newNet builds a network with this scheme's Table II router (2 VCs a
// VN, 4 ejection slots a class), ready for Attach.
func newNet(mesh *topology.Mesh) *network.Network {
	return network.New(network.Params{Mesh: mesh, Router: Config(2), EjectCap: 4})
}

// ringBurst saturates one VN with clockwise boundary traffic — a load
// that deadlocks fully-adaptive routing without recovery.
func ringBurst(enqueue func(p *message.Packet)) int {
	ring := []int{0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4}
	total := 0
	id := uint64(0)
	for round := 0; round < 200; round++ {
		for i, s := range ring {
			d := ring[(i+3)%len(ring)]
			id++
			ln := 1
			if id%2 == 0 {
				ln = 5
			}
			enqueue(message.NewPacket(id, s, d, message.Request, ln, 0))
			total++
		}
	}
	return total
}

func TestSpinDetectsAndResolvesDeadlock(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	ctl := Attach(n, Params{})
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	total := ringBurst(func(p *message.Packet) { n.NICs[p.Src].EnqueueSource(p) })
	for i := 0; i < 600000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("SPIN failed to drain: %d of %d (probes=%d detections=%d spins=%d aborts=%d)",
			ejected, total, ctl.Probes, ctl.Detections, ctl.Spins, ctl.Aborts)
	}
	if ctl.Probes == 0 {
		t.Error("saturating traffic should trigger probes")
	}
	if ctl.Spins == 0 {
		t.Error("the ring deadlock should have forced at least one spin")
	}
	if len(n.ResidentPackets()) != 0 {
		t.Error("network not empty after drain")
	}
}

func TestSpinQuietAtLowLoad(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	ctl := Attach(n, Params{})
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	for i := uint64(1); i <= 8; i++ {
		n.NICs[int(i)%16].EnqueueSource(message.NewPacket(i, int(i)%16, int(3*i)%16, message.Request, 1, 0))
	}
	n.Run(2000)
	if ctl.Spins != 0 || ctl.Detections != 0 {
		t.Errorf("light load produced %d detections / %d spins", ctl.Detections, ctl.Spins)
	}
	if ejected == 0 {
		t.Fatal("light traffic failed to deliver")
	}
}

func TestSpinDefaults(t *testing.T) {
	c := Attach(newNet(topology.NewMesh(8, 8)), Params{})
	if c.prm.Threshold != 128 {
		t.Errorf("threshold = %d, want Table II's 128", c.prm.Threshold)
	}
	if c.maxWalk != 256 {
		t.Errorf("maxWalk = %d, want 4×nodes", c.maxWalk)
	}
}

// refController drives a Controller through the probe as it stood
// before the Build-sized scratch — a fresh seen map and chain slice per
// probe — kept verbatim as refProbe. PreCycle is the Controller's own
// with that one call swapped.
type refController struct{ *Controller }

func (r refController) PreCycle(n *network.Network) {
	c := r.Controller
	cycle := n.Cycle()
	keep := c.pending[:0]
	for _, ps := range c.pending {
		if ps.at > cycle {
			keep = append(keep, ps)
			continue
		}
		c.executeSpin(n, ps)
	}
	c.pending = keep
	for rt := range n.ActiveRouters() {
		if cycle-c.lastProbe[rt.ID] < cooldown {
			continue
		}
		if s, ok := c.findBlockedHead(n, rt, cycle); ok {
			c.lastProbe[rt.ID] = cycle
			c.refProbe(n, s, cycle)
		}
	}
}

func stripPkt(s slot) slot { s.pkt = 0; return s }

func (c *Controller) refProbe(n *network.Network, origin slot, cycle int64) {
	c.Probes++
	chain := []slot{origin}
	seen := map[slot]int{stripPkt(origin): 0}
	cur := origin
	for step := 0; step < c.maxWalk; step++ {
		next, ok := c.dependency(n, cur)
		if !ok {
			c.Aborts++
			return
		}
		key := stripPkt(next)
		if idx, cyc := seen[key]; cyc {
			// A loop — but it must close on the origin for this
			// router's spin to free its own packet; loops discovered
			// mid-chain are left for their own routers to probe.
			if idx == 0 {
				c.Detections++
				n.Trace.Record(cycle, trace.RecoveryAction, 0, origin.node,
					fmt.Sprintf("spin detection, loop length %d", len(chain)))
				c.pending = append(c.pending, pendingSpin{
					chain: chain,
					at:    cycle + 2*int64(len(chain)),
				})
			} else {
				c.Aborts++
			}
			return
		}
		seen[key] = len(chain)
		chain = append(chain, next)
		// The probe flit occupies the link toward the next slot this
		// cycle (opportunistically: it shares gracefully with other
		// probes).
		if l := n.Mesh.OutLink(cur.node, linkToward(n, cur.node, next.node)); l != nil {
			n.TryClaimLink(l.ID)
		}
		cur = next
	}
	c.Aborts++
}

// claimTap records which links are claimed — their source routers'
// out-port masks — once the wrapped controller's PreCycle has run
// (claims are released at the next cycle's start).
type claimTap struct {
	network.Controller
	claimed []bool
}

func (t *claimTap) PreCycle(n *network.Network) {
	t.Controller.PreCycle(n)
	for id := range t.claimed {
		l := n.ChannelLink(id)
		t.claimed[id] = n.Routers[l.Src].Claimed>>l.SrcPort&1 != 0
	}
}

// TestProbeMatchesReference runs the deadlocking fixture of
// TestSpinDetectsAndResolvesDeadlock on two networks in lockstep, one
// probing from scratch storage and one with the map-and-slice probe it
// replaced: counters, the links each cycle's probes claimed and the
// pending loops must agree every cycle until both drain (a pending chain
// left aliasing probe scratch would be overwritten by the next probe and
// differ here).
func TestProbeMatchesReference(t *testing.T) {
	build := func(ref bool) (*network.Network, *Controller, *claimTap, *int) {
		n := newNet(topology.NewMesh(4, 4))
		ctl := Attach(n, Params{})
		tap := &claimTap{Controller: ctl, claimed: make([]bool, len(n.Mesh.Links()))}
		if ref {
			tap.Controller = refController{ctl}
		}
		n.Controller = tap
		ejected := new(int)
		for _, nc := range n.NICs {
			nc.OnEject = func(*message.Packet) { *ejected++ }
		}
		ringBurst(func(p *message.Packet) { n.NICs[p.Src].EnqueueSource(p) })
		return n, ctl, tap, ejected
	}
	n, ctl, tap, ejected := build(false)
	rn, rctl, rtap, rejected := build(true)
	total := ringBurst(func(*message.Packet) {})
	for c := 0; c < 600000 && *ejected < total; c++ {
		n.Step()
		rn.Step()
		if ctl.Probes != rctl.Probes || ctl.Aborts != rctl.Aborts || ctl.Detections != rctl.Detections || ctl.Spins != rctl.Spins {
			t.Fatalf("cycle %d: probes/aborts/detections/spins %d/%d/%d/%d, reference %d/%d/%d/%d", c,
				ctl.Probes, ctl.Aborts, ctl.Detections, ctl.Spins, rctl.Probes, rctl.Aborts, rctl.Detections, rctl.Spins)
		}
		if !reflect.DeepEqual(tap.claimed, rtap.claimed) {
			t.Fatalf("cycle %d: claimed links %v, reference %v", c, tap.claimed, rtap.claimed)
		}
		if !reflect.DeepEqual(ctl.pending, rctl.pending) {
			t.Fatalf("cycle %d: pending %+v, reference %+v", c, ctl.pending, rctl.pending)
		}
		if *ejected != *rejected {
			t.Fatalf("cycle %d: %d ejected, reference %d", c, *ejected, *rejected)
		}
	}
	if *ejected != total || ctl.Detections == 0 || ctl.Spins == 0 || ctl.Aborts == 0 {
		t.Fatalf("fixture did not exercise the probe: %d/%d ejected, %d detections, %d spins, %d aborts",
			*ejected, total, ctl.Detections, ctl.Spins, ctl.Aborts)
	}
}
