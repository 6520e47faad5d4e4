// Package pitstop implements the Pitstop baseline [Farrokhbakht et al.,
// HPCA'21]: a virtual-network-free NoC in which blocked packets pull
// into "pit stops" — spare buffering in the network interfaces of
// intermediate routers — and are later re-injected to continue their
// journey. To keep the pit traffic itself deadlock-free, only one
// message class may use the pit-stop bypass at a time, rotating on a
// fixed schedule whose period grows with network size: the scalability
// weakness Table I attributes to it (resolution slows as the network
// grows).
package pitstop

import (
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

const (
	// threshold is the blocked time before a packet may pit.
	threshold = 128
	// pitCap is the per-NI pit capacity in packets.
	pitCap = 4
)

// Config returns the Pitstop router configuration: no VNs (one shared
// buffer pool), fully adaptive routing.
func Config(vcs int) router.Config {
	return router.TableII(vcs, false, routing.FullyAdaptive, routing.FullyAdaptive)
}

// Controller implements the rotating NI bypass.
type Controller struct {
	// classSlot is the number of cycles each message class owns the
	// bypass: 4 × diameter, because the NI-to-NI hand-off crosses the
	// network.
	classSlot int64
	pits      [][]*message.Packet // per node

	// Absorbed counts packets pulled into pits; Reinjected counts
	// packets that resumed their journey.
	Absorbed, Reinjected int64
}

// Attach installs a Pitstop controller.
func Attach(n *network.Network) *Controller {
	n.Mesh.RequireMesh("pitstop")
	c := &Controller{classSlot: int64(4 * n.Mesh.Diameter()), pits: make([][]*message.Packet, n.Mesh.NumNodes())}
	n.Controller = c
	return c
}

// Name implements network.Controller.
func (c *Controller) Name() string { return "Pitstop" }

// PostCycle implements network.Controller.
func (c *Controller) PostCycle(*network.Network) {}

// bypassClass returns the class that currently owns the bypass.
func (c *Controller) bypassClass(cycle int64) message.Class {
	return message.Class((cycle / c.classSlot) % int64(message.NumClasses))
}

// PreCycle implements network.Controller: re-inject pitted packets of
// the active class, then absorb long-blocked packets of that class.
func (c *Controller) PreCycle(n *network.Network) {
	cycle := n.Cycle()
	active := c.bypassClass(cycle)
	for node := range c.pits {
		c.reinject(n, node, active)
	}
	// Only routers holding packets can have an absorbable head; the
	// active set visits exactly those, in the same ascending order a
	// full scan would.
	for r := range n.ActiveRouters() {
		c.absorb(n, r, active, cycle)
	}
}

// reinject moves pitted packets of the active class into the node's
// injection queue so they continue toward their destinations.
func (c *Controller) reinject(n *network.Network, node int, active message.Class) {
	pit := c.pits[node]
	for len(pit) > 0 {
		pkt := pit[0]
		if pkt.Class != active {
			// Head-of-line by class: rotate the head to the back so a
			// same-class packet behind it can go.
			rotated := false
			for i, p := range pit {
				if p.Class == active {
					pit[0], pit[i] = pit[i], pit[0]
					pkt = pit[0]
					rotated = true
					break
				}
			}
			if !rotated {
				break
			}
		}
		if !n.Routers[node].InjectPacket(pkt) {
			break
		}
		pit = pit[1:]
		c.Reinjected++
		n.Trace.Record(n.Routers[node].Env.Cycle(), trace.RecoveryAction, pkt.ID, node, "pit reinject")
	}
	c.pits[node] = pit
}

// absorb pulls one long-blocked head of the active class per router
// into the NI pit, freeing its buffer (the forward progress that breaks
// both protocol- and network-level cycles).
func (c *Controller) absorb(n *network.Network, r *router.Router, active message.Class, cycle int64) {
	if len(c.pits[r.ID]) >= pitCap {
		return
	}
	for p, v := range r.OccupiedVCs(topology.North) {
		if e := r.VCFor(p, v).Head(); !e.FullyBuffered() || e.Pkt.Class != active || cycle-e.LastMove < threshold {
			continue
		}
		pkt := r.RemoveHeadPacket(p, v)
		if pkt == nil {
			continue
		}
		c.pits[r.ID] = append(c.pits[r.ID], pkt)
		c.Absorbed++
		n.Trace.Record(cycle, trace.RecoveryAction, pkt.ID, r.ID, "pit absorb")
		return
	}
}

// ForEachHeld visits every pitted packet (conservation watchdog: pitted
// packets live outside router buffers but are still in flight).
func (c *Controller) ForEachHeld(f func(*message.Packet)) {
	for _, p := range c.pits {
		for _, pkt := range p {
			f(pkt)
		}
	}
}
