// Package swap implements the SWAP baseline [Parasar et al., MICRO'19]:
// packets route fully adaptively (deadlock cycles can form), and every
// swap-duty period a router whose head packet has been blocked too long
// forcibly exchanges it with the packet occupying the downstream buffer
// it is waiting for. The synchronized exchange guarantees forward
// progress for the blocked packet at the cost of misrouting the
// displaced one; protocol deadlock is still avoided with 6 VNs.
package swap

import (
	"cmp"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Params tunes SWAP.
type Params struct {
	// Duty is the swap period in cycles (1K in Table II).
	Duty int64
}

// threshold is the minimum blocked time before a head is eligible.
const threshold = 128

// Config returns the SWAP router configuration: 6 VNs, fully adaptive
// routing on every VC.
func Config(vcs int) router.Config {
	return router.TableII(vcs, true, routing.FullyAdaptive, routing.FullyAdaptive)
}

// Controller performs the periodic swaps.
type Controller struct {
	prm Params

	// Swaps counts forced exchanges; Moves counts one-way relocations
	// into an empty downstream VC; Misroutes counts displaced packets.
	Swaps, Moves, Misroutes int64
}

// Attach installs a SWAP controller on a network built with Config.
func Attach(n *network.Network, prm Params) *Controller {
	n.Mesh.RequireMesh("swap")
	prm.Duty = cmp.Or(prm.Duty, 1024)
	c := &Controller{prm: prm}
	n.Controller = c
	return c
}

// Name implements network.Controller.
func (c *Controller) Name() string { return "SWAP" }

// PostCycle implements network.Controller.
func (c *Controller) PostCycle(*network.Network) {}

// PreCycle implements network.Controller: on each duty boundary, sweep
// the routers and resolve long-blocked heads by swapping them forward.
func (c *Controller) PreCycle(n *network.Network) {
	cycle := n.Cycle()
	if cycle == 0 || cycle%c.prm.Duty != 0 {
		return
	}
	// Empty routers have no heads to resolve; sweep only the active
	// set (ascending order, identical to the historical full scan).
	for r := range n.ActiveRouters() {
		c.sweepRouter(n, r)
	}
}

// sweepRouter swaps at most one long-blocked head per router per duty —
// SWAP's hardware performs one weave at a time.
func (c *Controller) sweepRouter(n *network.Network, r *router.Router) {
	for p, v := range r.OccupiedVCs(topology.North) {
		e := r.VCFor(p, v).Head()
		if !e.FullyBuffered() || n.Cycle()-e.LastMove < threshold {
			continue
		}
		if c.resolve(n, r, p, v, e) {
			return
		}
	}
}

// resolve moves the blocked head at (port, v) one hop toward its
// destination, swapping with the downstream occupant when necessary.
func (c *Controller) resolve(n *network.Network, r *router.Router, port topology.Direction, v int, e *router.Entry) bool {
	pkt := e.Pkt
	if pkt.Dst == r.ID {
		// Blocked on ejection; swapping cannot help — the consumer
		// must drain (the 6 VNs keep this from deadlocking at the
		// protocol level).
		return false
	}
	var dirBuf [2]topology.Direction
	dirs := routing.RouteFullyAdaptive(n.Mesh, dirBuf[:0], r.ID, pkt.Dst)
	for _, d := range dirs {
		l := n.Mesh.OutLink(r.ID, d)
		if l == nil {
			continue
		}
		down := n.Routers[l.Dst]
		inPort := l.DstPort
		// Target the same VC index downstream; SWAP weaves within a
		// VC lane.
		dv := down.VCFor(inPort, v)
		if dv.Empty() {
			// Move into the empty slot, but only when no other local
			// head holds its claim (removing ours releases our own).
			moved := r.RemoveHeadPacketNoCredit(port, v)
			if moved == nil {
				return false
			}
			if !r.DownstreamVCFree(d, v) || !down.InsertPacket(inPort, v, moved) {
				// Another allocated head expects that VC; put ours
				// back — upstream never saw the slot free.
				r.InsertPacket(port, v, moved)
				continue
			}
			r.ClaimDownstreamVC(d, v)
			r.CreditUpstream(port, v)
			moved.Hops++
			c.Moves++
			n.Trace.Record(n.Cycle(), trace.RecoveryAction, moved.ID, r.ID, "swap move")
			return true
		}
		de := dv.Head()
		if de == nil || !de.FullyBuffered() {
			continue
		}
		// Synchronized exchange: both slots are refilled in place, so
		// neither upstream router ever sees its slot free.
		a := r.RemoveHeadPacketNoCredit(port, v)
		if a == nil {
			return false
		}
		b := down.RemoveHeadPacketNoCredit(inPort, v)
		if b == nil {
			r.InsertPacket(port, v, a)
			return false
		}
		if !down.InsertPacket(inPort, v, a) || !r.InsertPacket(port, v, b) {
			panic("swap: exchange into freshly emptied VCs failed")
		}
		a.Hops++
		b.Hops++ // displaced: misrouted one hop backward
		c.Swaps++
		c.Misroutes++
		n.Trace.Record(n.Cycle(), trace.RecoveryAction, a.ID, r.ID, "swap exchange")
		return true
	}
	return false
}
