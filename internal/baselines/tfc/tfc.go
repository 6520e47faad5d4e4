// Package tfc implements the Token Flow Control baseline [Kumar et al.,
// MICRO'08]: West-first routing over six virtual networks, with routers
// advertising buffer availability as tokens. A packet holding a token
// for its next hop skips the downstream router's allocation pipeline
// entirely, halving its per-hop latency; when two packets contend, one
// loses its bypass and is buffered normally. Tokens evaporate under
// load, so TFC's advantage is a low-load latency win that fades toward
// saturation — and West-first's restricted turns saturate earlier than
// the adaptive schemes on asymmetric patterns (Fig. 7).
//
// Modelling note: the bypass applies to single-flit (control) packets,
// which dominate the Table II mix; multi-flit data packets would need
// multi-cycle link reservations that the opportunistic token protocol
// does not guarantee.
package tfc

import (
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Config returns the TFC router configuration: 6 VNs, West-first on
// every VC (deadlock-free turn model).
func Config(vcs int) router.Config {
	return router.TableII(vcs, true, routing.WestFirst, routing.WestFirst)
}

// Controller implements the token bypass.
type Controller struct {
	// Bypasses counts token-granted single-cycle hops; TokenMisses
	// counts heads that held no token this cycle.
	Bypasses, TokenMisses int64
}

// Attach installs a TFC controller.
func Attach(n *network.Network) *Controller {
	n.Mesh.RequireMesh("tfc")
	c := &Controller{}
	n.Controller = c
	return c
}

// Name implements network.Controller.
func (c *Controller) Name() string { return "TFC" }

// PostCycle implements network.Controller.
func (c *Controller) PostCycle(*network.Network) {}

// PreCycle implements network.Controller: grant at most one token
// bypass per router per cycle.
func (c *Controller) PreCycle(n *network.Network) {
	// Token bypass needs a buffered head; only active routers can have
	// one (ascending order, identical to the historical full scan).
	for r := range n.ActiveRouters() {
		c.bypassOne(n, r)
	}
}

// bypassOne advances one token-holding control packet a full hop.
func (c *Controller) bypassOne(n *network.Network, r *router.Router) {
	for p, v := range r.OccupiedVCs(topology.Local) {
		e := r.VCFor(p, v).Head()
		if !e.FullyBuffered() || e.Allocated {
			continue
		}
		// Only packets the regular pipeline has left waiting use
		// the token path: with 1-cycle routers (Table II) there is
		// no pipeline to skip on an uncontended path, so TFC's
		// low-load latency matches the other schemes (Fig. 7) and
		// tokens pay off by cutting queueing under contention.
		if n.Cycle()-e.LastMove < 2 {
			continue
		}
		pkt := e.Pkt
		if pkt.Len != 1 || pkt.Dst == r.ID {
			continue
		}
		if c.tryBypass(n, r, p, v, pkt) {
			return
		}
	}
}

func (c *Controller) tryBypass(n *network.Network, r *router.Router, port topology.Direction, v int, pkt *message.Packet) bool {
	var dirBuf [2]topology.Direction
	dirs := routing.RouteWestFirst(n.Mesh, dirBuf[:0], r.ID, pkt.Dst)
	vn := r.Cfg.ClassVN(pkt.Class)
	for _, d := range dirs {
		l := n.Mesh.OutLink(r.ID, d)
		if l == nil {
			continue
		}
		// Token: a free VC advertised behind the port (the last one).
		pick := -1
		for i := 0; i < r.Cfg.VCsPerVN; i++ {
			gvc := vn*r.Cfg.VCsPerVN + i
			if r.DownstreamVCFree(d, gvc) {
				pick = gvc
			}
		}
		if pick < 0 {
			continue
		}
		if !n.TryClaimLink(l.ID) {
			// Another bypass holds the wire: this packet loses its
			// token and buffers normally (the paper's conflict rule).
			continue
		}
		moved := r.RemoveHeadPacketNoCredit(port, v)
		if moved == nil {
			return false
		}
		down := n.Routers[l.Dst]
		if !down.InsertPacket(l.DstPort, pick, moved) {
			r.InsertPacket(port, v, moved)
			return false
		}
		r.ClaimDownstreamVC(d, pick)
		r.CreditUpstream(port, v)
		if moved.InjectTime < 0 {
			moved.InjectTime = n.Cycle()
		}
		moved.Hops++
		c.Bypasses++
		return true
	}
	c.TokenMisses++
	return false
}
