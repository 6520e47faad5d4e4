// Package spin implements the SPIN baseline [Ramrakhyani et al.,
// ISCA'18]: fully adaptive routing with timeout-triggered deadlock
// detection. A router whose head packet has been blocked past the
// detection threshold launches a probe that walks the buffer-dependency
// chain; if the probe returns to its origin a deadlock is confirmed and,
// after a coordination delay proportional to the loop length (the
// probe/move-message round trip that makes SPIN slow at scale), every
// packet in the loop is moved one hop forward simultaneously — each into
// the slot vacated by its successor.
package spin

import (
	"cmp"
	"fmt"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Params tunes SPIN.
type Params struct {
	// Threshold is the blocked-time deadlock suspicion trigger (128 in
	// Table II).
	Threshold int64
}

// cooldown is the per-router wait between probes.
const cooldown = 64

// Config returns the SPIN router configuration (6 VNs, fully adaptive).
func Config(vcs int) router.Config {
	return router.TableII(vcs, true, routing.FullyAdaptive, routing.FullyAdaptive)
}

// slot is one position in a dependency chain.
type slot struct {
	node int
	port topology.Direction
	vc   int
	pkt  uint64 // packet ID expected at spin time
}

// pendingSpin is a confirmed loop awaiting its coordination delay.
type pendingSpin struct {
	chain []slot
	at    int64
}

// Controller implements SPIN.
type Controller struct {
	prm       Params
	maxWalk   int // probe walk bound: 4 × nodes
	lastProbe []int64
	pending   []pendingSpin

	// Probe scratch, sized at Attach: the walk in progress, and stamps
	// marking its slots (seen[slot] == gen; wiped when gen wraps).
	chain []slot
	seen  []uint8
	gen   uint8
	// chains are executed spins' chain buffers for confirm to reuse;
	// pkts is executeSpin's scratch, sized at Attach.
	chains [][]slot
	pkts   []*message.Packet

	// Probes, Detections, Spins and Aborts count protocol activity.
	Probes, Detections, Spins, Aborts int64
}

// Attach installs a SPIN controller.
func Attach(n *network.Network, prm Params) *Controller {
	n.Mesh.RequireMesh("spin")
	prm.Threshold = cmp.Or(prm.Threshold, 128)
	c := &Controller{prm: prm, maxWalk: 4 * n.Mesh.NumNodes(), lastProbe: make([]int64, n.Mesh.NumNodes())}
	c.chain = make([]slot, 0, c.maxWalk+1)
	c.pkts = make([]*message.Packet, 0, c.maxWalk+1)
	c.seen = make([]uint8, n.Mesh.NumNodes()*n.Mesh.NumPorts()*n.Routers[0].Cfg.NetVCs())
	n.Controller = c
	return c
}

// Name implements network.Controller.
func (c *Controller) Name() string { return "SPIN" }

// PostCycle implements network.Controller.
func (c *Controller) PostCycle(*network.Network) {}

// PreCycle implements network.Controller.
func (c *Controller) PreCycle(n *network.Network) {
	cycle := n.Cycle()
	// Execute due spins. Filtering in place reuses c.pending's backing
	// array, so the scan allocates nothing.
	keep := c.pending[:0]
	for _, ps := range c.pending {
		if ps.at > cycle {
			keep = append(keep, ps)
			continue
		}
		c.executeSpin(n, ps)
		c.chains = append(c.chains, ps.chain[:0])
	}
	c.pending = keep
	// Launch probes from routers with long-blocked heads. Empty routers
	// cannot have one, so the scan covers only the active set (same
	// ascending order as the historical full scan).
	for r := range n.ActiveRouters() {
		if cycle-c.lastProbe[r.ID] < cooldown {
			continue
		}
		if s, ok := c.findBlockedHead(n, r, cycle); ok {
			c.lastProbe[r.ID] = cycle
			c.probe(n, s, cycle)
		}
	}
}

// findBlockedHead returns a network-VC head blocked past the threshold.
func (c *Controller) findBlockedHead(n *network.Network, r *router.Router, cycle int64) (slot, bool) {
	for p, v := range r.OccupiedVCs(topology.North) {
		if e := r.VCFor(p, v).Head(); e.FullyBuffered() && e.Pkt.Dst != r.ID && cycle-e.LastMove >= c.prm.Threshold {
			return slot{node: r.ID, port: p, vc: v, pkt: e.Pkt.ID}, true
		}
	}
	return slot{}, false
}

// probe walks the dependency chain from origin. A walk that returns to
// the origin slot confirms a deadlock; the spin is scheduled after a
// coordination delay of two cycles per loop hop (probe out, move-msg
// back). The probe message itself consumes link bandwidth along its
// walk — the overhead that degrades SPIN under congestion (its probes
// fire on every long-blocked head, deadlock or not).
//
//nocvet:hot
func (c *Controller) probe(n *network.Network, origin slot, cycle int64) {
	c.Probes++
	if c.gen++; c.gen == 0 {
		clear(c.seen)
		c.gen = 1
	}
	chain := append(c.chain[:0], origin)
	start := c.stamp(n, origin)
	*start = c.gen
	cur := origin
	for step := 0; step < c.maxWalk; step++ {
		next, ok := c.dependency(n, cur)
		if !ok {
			c.Aborts++
			return
		}
		seen := c.stamp(n, next)
		if *seen == c.gen {
			// A loop — but it must close on the origin for this
			// router's spin to free its own packet; loops discovered
			// mid-chain are left for their own routers to probe.
			if seen == start {
				c.confirm(n, origin, chain, cycle)
			} else {
				c.Aborts++
			}
			return
		}
		*seen = c.gen
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

// stamp addresses the probe stamp of s's (node, port, vc).
func (c *Controller) stamp(n *network.Network, s slot) *uint8 {
	return &c.seen[(s.node*n.Mesh.NumPorts()+int(s.port))*n.Routers[s.node].Cfg.NetVCs()+s.vc]
}

// confirm schedules the spin of a loop that closed on its origin; the
// chain is copied out of probe scratch, into an executed spin's buffer
// when one is free, for pendingSpin to keep.
//
//nocvet:cold runs once per confirmed deadlock loop; it grows c.pending and c.chains only past their high-water marks
func (c *Controller) confirm(n *network.Network, origin slot, chain []slot, cycle int64) {
	c.Detections++
	if n.Trace != nil {
		n.Trace.Record(cycle, trace.RecoveryAction, 0, origin.node, fmt.Sprintf("spin detection, loop length %d", len(chain)))
	}
	var buf []slot
	if k := len(c.chains); k > 0 {
		buf, c.chains = c.chains[k-1], c.chains[:k-1]
	}
	c.pending = append(c.pending, pendingSpin{
		chain: append(buf, chain...),
		at:    cycle + 2*int64(len(chain)),
	})
}

// linkToward returns the port from a to its neighbour b.
func linkToward(n *network.Network, a, b int) topology.Direction {
	for d := topology.North; d <= topology.West; d++ {
		if l := n.Mesh.OutLink(a, d); l != nil && l.Dst == b {
			return d
		}
	}
	return topology.Local
}

// dependency finds the slot blocking cur's head packet: the occupant of
// the first busy allowed VC behind cur's preferred output port. A free
// or streaming VC means no deadlock along this branch.
func (c *Controller) dependency(n *network.Network, cur slot) (slot, bool) {
	r := n.Routers[cur.node]
	e := r.VCFor(cur.port, cur.vc).Head()
	if e == nil || !e.FullyBuffered() {
		return slot{}, false
	}
	pkt := e.Pkt
	if pkt.Dst == r.ID {
		// Waiting on ejection, not on a buffer: no network cycle.
		return slot{}, false
	}
	var dirBuf [2]topology.Direction
	dirs := routing.RouteFullyAdaptive(n.Mesh, dirBuf[:0], r.ID, pkt.Dst)
	if len(dirs) == 0 {
		return slot{}, false
	}
	vn := r.Cfg.ClassVN(pkt.Class)
	var candidate slot
	found := false
	for _, d := range dirs {
		l := n.Mesh.OutLink(r.ID, d)
		if l == nil {
			continue
		}
		down := n.Routers[l.Dst]
		for i := 0; i < r.Cfg.VCsPerVN; i++ {
			gvc := vn*r.Cfg.VCsPerVN + i
			if r.DownstreamVCFree(d, gvc) {
				// A free VC: the packet is not deadlocked (VA will
				// take it); abort the probe.
				return slot{}, false
			}
			de := down.VCFor(l.DstPort, gvc).Head()
			if de == nil || !de.FullyBuffered() {
				// Streaming or in-flight: progress exists somewhere.
				return slot{}, false
			}
			if !found {
				candidate = slot{node: down.ID, port: l.DstPort, vc: gvc, pkt: de.Pkt.ID}
				found = true
			}
		}
	}
	return candidate, found
}

// executeSpin validates the chain and rotates every packet one hop
// forward: chain[i]'s packet moves into chain[i+1]'s slot.
func (c *Controller) executeSpin(n *network.Network, ps pendingSpin) {
	chain := ps.chain
	for _, s := range chain {
		e := n.Routers[s.node].VCFor(s.port, s.vc).Head()
		if e == nil || !e.FullyBuffered() || e.Pkt.ID != s.pkt {
			// The loop broke while coordination was in flight.
			c.Aborts++
			return
		}
	}
	pkts := c.pkts[:0]
	for _, s := range chain {
		p := n.Routers[s.node].RemoveHeadPacketNoCredit(s.port, s.vc)
		if p == nil {
			panic("spin: validated head vanished")
		}
		pkts = append(pkts, p)
	}
	for i, s := range chain {
		src := (i + len(chain) - 1) % len(chain)
		if !n.Routers[s.node].InsertPacket(s.port, s.vc, pkts[src]) {
			panic("spin: refill of spun slot failed")
		}
		pkts[src].Hops++
	}
	clear(pkts)
	c.Spins++
	if n.Trace != nil {
		//nocvet:ignore hotalloc2 guarded by Trace != nil — tracing runs are diagnostic; perf runs leave Trace unset
		n.Trace.Record(n.Cycle(), trace.RecoveryAction, 0, chain[0].node, fmt.Sprintf("spin executed, %d packets rotated", len(chain)))
	}
}
