package fastpass

import (
	"repro/internal/faults"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Self-healing lane re-derivation (DESIGN.md §15). The paper's §III-F
// derives FastPass lanes for *any* connected topology from a holistic
// walk, which makes a permanent link failure just a new irregular
// topology: when the fault injector marks a link permanently down the
// controller drains its in-flight FastPass-Packets, re-runs the walk
// derivation on the surviving graph, and resumes with circulating
// lanes over the degraded fabric — the WalkLanes engine (walklanes.go)
// that a graph network's lanes ride too (AttachWalk).
//
// The protocol is drain → rederive → resume, entirely inside the
// serial PreCycle stretch of the cycle engine:
//
//   - drain: the injector's permanent-failure generation moved, so the
//     wiring must change. New launches/pickups stop; packets already in
//     the air complete on the old configuration (a flight lasts at most
//     one slot, a lane ride at most one walk circuit).
//   - rederive: once no packet is mid-flight, derive the holistic walk
//     on the mesh itself over the surviving channels (a channel
//     survives only if neither direction is permanently down) and
//     install evenly spaced circulating lanes over it. If the cut
//     disconnected the fabric, record the failed heal and stay in
//     static degraded mode (dead-path launch gating).
//   - resume: lanes ride the walk in lockstep, one link per cycle;
//     acceptance is guaranteed by taking the NIC's single per-class
//     reservation at promotion time.
//
// Everything runs in PreCycle and is a pure function of (plan,
// topology, seed), so campaigns stay bit-identical at any -j and across
// checkpoint resume.

// healedHost is the network under the circulating lanes, a healed mesh
// or a graph: the Controller seen through WalkLanes' LaneHost.
type healedHost Controller

func (h *healedHost) ClaimLink(link int) { h.net.ClaimLink(link) }

func (h *healedHost) VC(node, port, vc int) *router.VC {
	return h.net.Routers[node].VCFor(topology.Direction(port), vc)
}

func (h *healedHost) Occupancy(node int, occ []uint64) {
	m := h.net.Routers[node].Occupancy()
	copy(occ, m[:])
}

func (h *healedHost) RemoveHead(node, port, vc int) *message.Packet {
	return h.net.Routers[node].RemoveHeadPacket(topology.Direction(port), vc)
}

// Admit requires the destination queue's single per-class reservation
// to be free or already pkt's; another holder means retry later.
func (h *healedHost) Admit(pkt *message.Packet) bool {
	nic := h.net.NICs[pkt.Dst]
	return nic.Reservations(pkt.Class) == 0 || nic.HasReservation(pkt)
}

func (h *healedHost) Note(ev LaneEvent, pkt *message.Packet, node int) {
	cycle := h.net.Cycle()
	switch ev {
	case LaneBoarded:
		h.net.NICs[pkt.Dst].TryReserve(pkt) // cannot fail: Admit held, PreCycle is serial
		h.Counters.Promoted++
		h.net.Trace.Record(cycle, trace.PacketPromoted, pkt.ID, node, "")
	case LaneLanded:
		h.Counters.Rejections++
		h.net.Trace.Record(cycle, trace.PacketRejected, pkt.ID, node, "held in landing register")
	case LaneDelivered:
		h.Counters.FastEjects++
		h.net.Trace.Record(cycle, trace.LaneDeliver, pkt.ID, node, "")
	}
}

// trackFaults is the per-cycle healing state machine: one integer
// compare on the healthy path, the drain/rederive protocol when the
// permanent-failure generation moves.
func (c *Controller) trackFaults() {
	inj := c.net.Faults()
	if inj == nil {
		return
	}
	if c.restored {
		c.restored = false
		c.rebuildDeadLinks(inj)
	}
	if gen := inj.PermGen(); gen != c.appliedGen {
		c.rebuildDeadLinks(inj)
		if c.prm.Healing {
			c.draining = true
		} else {
			c.appliedGen = gen
		}
	}
	if c.draining && c.quiet() {
		c.rederive(inj)
		c.draining = false
	}
}

// rebuildDeadLinks mirrors the injector's permanently-failed set into
// the controller's dense lookup.
//
//nocvet:cold runs once per permanent-failure generation, not per cycle
func (c *Controller) rebuildDeadLinks(inj *faults.Injector) {
	if c.deadLink == nil {
		c.deadLink = make([]bool, len(c.mesh.Links()))
	}
	c.deadCount = 0
	for i := range c.deadLink {
		c.deadLink[i] = inj.LinkDownPermanently(i)
		if c.deadLink[i] {
			c.deadCount++
		}
	}
}

// quiet reports whether no packet is mid-flight on either lane
// mechanism. Landing registers are excluded: a landed packet's delivery
// does not depend on the wiring being replaced.
func (c *Controller) quiet() bool {
	for _, f := range c.flights {
		if f != nil {
			return false
		}
	}
	return c.lanes == nil || c.lanes.Riding() == 0
}

// laneDead reports whether the mesh lane round trip prime→dst (XY out,
// YX return) crosses a permanently failed link — lane wiring that died
// with the silicon. Transient failures do not count: the dedicated
// wiring of the paper's router rides out glitches.
func (c *Controller) laneDead(prime, dst int) bool {
	c.pathBuf = routing.AppendPathXY(c.mesh, c.pathBuf[:0], prime, dst)
	for _, l := range c.pathBuf {
		if c.deadLink[l.ID] {
			return true
		}
	}
	c.pathBuf = routing.AppendPathYX(c.mesh, c.pathBuf[:0], dst, prime)
	for _, l := range c.pathBuf {
		if c.deadLink[l.ID] {
			return true
		}
	}
	return false
}

// rederive rebuilds the lane wiring for the current permanent-failure
// generation: surviving channels → holistic walk → circulating lanes.
// The walk is derived on the mesh itself, in mesh link IDs, from node 0,
// over the channels whose two directions both survive (the walk needs
// balanced in/out degree).
//
//nocvet:cold runs once per permanent link failure, not per cycle
func (c *Controller) rederive(inj *faults.Injector) {
	c.appliedGen = inj.PermGen()
	walk, connected := c.mesh.HolisticWalk(&c.walker, c.deadLink)
	if !connected {
		// The cut disconnected the fabric: no walk exists. Stay in
		// static degraded mode — dead lanes stop launching — and let the
		// campaign see the failed heal.
		c.lanes.Install(nil, 0)
		c.healFailed = true
		c.Counters.HealFails++
		return
	}
	c.lanes.Install(walk, c.sched.Partitions())
	c.healFailed = false
	c.Counters.Heals++
	c.net.Trace.Record(c.net.Cycle(), trace.PacketPromoted, 0, 0, "lane schedule re-derived")
}

// Healed reports whether a re-derived lane schedule is active
// (diagnostics, tests, campaign accounting).
func (c *Controller) Healed() bool { return c.lanes.Active() }

// AttachWalk installs the §III-F controller on a graph network (see
// topology.NewGraph): no TDM schedule, only lanes circulating on the
// graph's holistic walk, one per 16 walk links as WalkLanes caps them.
// Acceptance is the NIC reservation, as on a healed mesh. The graph
// needs a channel to walk.
func AttachWalk(net *network.Network) *Controller {
	c := &Controller{net: net, mesh: net.Mesh}
	c.lanes = NewWalkLanes((*healedHost)(c), c.mesh.Links(), net.NICs, c.mesh.NumPorts(), net.Routers[0].Cfg.NetVCs())
	walk, connected := c.mesh.HolisticWalk(&c.walker, nil)
	if !connected {
		panic("fastpass: AttachWalk needs a connected fabric with a channel to walk")
	}
	c.lanes.Install(walk, len(walk)/16)
	net.Controller = c
	return c
}
