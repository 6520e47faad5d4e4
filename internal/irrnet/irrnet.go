// Package irrnet is the §III-F substrate: a flit-level, credit-based
// virtual-cut-through NoC over an arbitrary irregular topology
// (bidirectional channels, table-routed minimal adaptive routing), with
// the FastPass mechanism generalised away from mesh geometry.
//
// On a mesh, FastPass gets collision freedom from column partitions and
// diagonal primes. On an irregular fabric the paper prescribes deriving
// partitions from a holistic walk that traverses every directed link
// exactly once (§III-F). fastpass.WalkLanes concretises that sketch as
// "circulating lanes" riding the closed walk in lock-step, which
// restores the paper's Lemma 1/2 structure without any mesh
// assumptions; this package is the fabric under that engine.
//
// Guaranteed acceptance at the destination is provided by reserving a
// landing slot in the destination NI at promotion time (the irregular
// analogue of the mesh's reserve-and-return — one small landing
// register per NI, noted as added cost).
package irrnet

import (
	"fmt"

	"repro/internal/fastpass"
	"repro/internal/message"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/topology"
)

// Params configures an irregular network.
type Params struct {
	// VCs per network input port (shared by all message classes — the
	// FastPass design point); 0 = 2.
	VCs int
	// Lanes is the number of circulating FastPass lanes (0 = derive
	// from topology: one per ~16 walk links); the engine caps it at the
	// walk-spacing bound.
	Lanes int
	// LandingCap is the per-node landing-register capacity in packets;
	// 0 = 2.
	LandingCap int
	// DisableLanes turns the FastPass mechanism off (control runs: the
	// bare adaptive network, which can deadlock).
	DisableLanes bool
}

// Buffer sizing, as on the mesh (Table II).
const (
	bufFlits      = 5  // per network VC
	injQueueFlits = 10 // per class injection queue
	ejectCap      = 4  // per class ejection queue, in packets
)

// irRouter is one node's switch: per-port input VCs (port 0 = per-class
// injection queues), table-routed VA, two-stage SA.
type irRouter struct {
	id  int
	net *Network

	inputs [][]*router.VC // [port][vc]
	// in[port]/out[port] are the channels feeding and leaving the port
	// (nil where the node has no such neighbour).
	in, out []*channel
	// next[dst] lists the output ports on a minimal path toward dst.
	next [][]topology.Direction
	// vcFree[port][vc]: downstream VC availability (credit state).
	vcFree [][]bool
	// ejecting marks classes with a regular packet mid-ejection.
	ejecting [message.NumClasses]bool

	vaPtr    int
	saInArb  []*router.RRArbiter
	saOutArb []*router.RRArbiter
	// nominee[port] is switch allocation's stage-1 winner VC, or -1.
	nominee []int
}

// transit is a flit in flight on a directed link (two-stage pipeline:
// wire then latch, as in the mesh network).
type transit struct {
	flit  message.Flit
	vc    int
	valid bool
}

type channel struct {
	link       topology.Link
	cur, next  transit
	creditNext []int
}

// Network is a running irregular NoC.
type Network struct {
	Topo *topology.Irregular
	prm  Params

	routers  []*irRouter
	NICs     []*nic.NIC
	channels []channel
	claims   []bool

	// lanes circulates the FastPass lanes over the holistic walk (none
	// installed under DisableLanes); landingRsv[node] counts the landing
	// slots promised to packets promoted toward node.
	lanes      *fastpass.WalkLanes
	landingRsv []int

	cycle int64

	// Promoted/Delivered count lane activity; LandingWaits counts
	// arrivals that needed the landing register.
	Promoted, Delivered, LandingWaits int64
}

// New builds an irregular network with FastPass lanes. A port has at
// most 64 VCs and a node at most 63 neighbours (the arbiters' request
// masks).
func New(t *topology.Irregular, prm Params) *Network {
	if prm.VCs == 0 {
		prm.VCs = 2
	}
	if prm.LandingCap == 0 {
		prm.LandingCap = 2
	}
	if prm.VCs > 64 || t.NumPorts() > 64 {
		panic(fmt.Sprintf("irrnet: %d VCs on %d ports exceed the 64-bit request masks", prm.VCs, t.NumPorts()))
	}
	n := &Network{
		Topo:       t,
		prm:        prm,
		NICs:       make([]*nic.NIC, t.NumNodes()),
		channels:   make([]channel, len(t.Links())),
		claims:     make([]bool, len(t.Links())),
		landingRsv: make([]int, t.NumNodes()),
	}
	for id := range n.NICs {
		n.NICs[id] = nic.New(id, ejectCap)
		r := newIrRouter(id, n)
		n.NICs[id].Inject = r.injectPacket
		n.routers = append(n.routers, r)
	}
	for i, l := range t.Links() {
		ch := &n.channels[i]
		ch.link = l
		n.routers[l.Src].out[l.SrcPort] = ch
		n.routers[l.Dst].in[l.DstPort] = ch
	}
	n.lanes = fastpass.NewWalkLanes((*laneHost)(n), t.Links(), n.NICs, t.NumPorts(), prm.VCs)
	if !prm.DisableLanes {
		walk := t.HolisticWalk()
		if prm.Lanes == 0 {
			prm.Lanes = len(walk) / 16
		}
		n.lanes.Install(walk, prm.Lanes)
	}
	return n
}

func newIrRouter(id int, n *Network) *irRouter {
	t := n.Topo
	nPorts := t.NumPorts()
	r := &irRouter{
		id: id, net: n,
		inputs:  make([][]*router.VC, nPorts),
		in:      make([]*channel, nPorts),
		out:     make([]*channel, nPorts),
		next:    make([][]topology.Direction, t.NumNodes()),
		vcFree:  make([][]bool, nPorts),
		nominee: make([]int, nPorts),
	}
	for dst := range r.next {
		r.next[dst] = t.NextHopMinimal(id, dst)
	}
	for c := 0; c < int(message.NumClasses); c++ {
		r.inputs[0] = append(r.inputs[0], router.NewVC(injQueueFlits, injQueueFlits))
	}
	for p := 1; p < nPorts; p++ {
		r.vcFree[p] = make([]bool, n.prm.VCs)
		for v := range r.vcFree[p] {
			r.inputs[p] = append(r.inputs[p], router.NewVC(bufFlits, 1))
			r.vcFree[p][v] = true
		}
	}
	for p := 0; p < nPorts; p++ {
		r.saInArb = append(r.saInArb, router.NewRRArbiter(len(r.inputs[p])))
		r.saOutArb = append(r.saOutArb, router.NewRRArbiter(nPorts))
	}
	return r
}

// Cycle reports the current cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// injectPacket is the NIC → router hook.
func (r *irRouter) injectPacket(pkt *message.Packet) bool {
	q := r.inputs[0][pkt.Class]
	if !q.CanAccept(pkt.Len) {
		return false
	}
	q.EnqueueWhole(pkt, r.net.cycle)
	return true
}

// Step advances one cycle.
//
//nocvet:hot
func (n *Network) Step() {
	clear(n.claims)
	n.lanes.Step(n.cycle, true)
	n.lanes.DrainLandings(n.cycle)
	for _, nc := range n.NICs {
		nc.TickConsume(n.cycle)
		nc.TickInject(n.cycle)
	}
	for _, r := range n.routers {
		r.step()
	}
	n.shift()
	n.cycle++
}

// Run advances k cycles.
func (n *Network) Run(k int) {
	for i := 0; i < k; i++ {
		n.Step()
	}
}

// shift advances link and credit pipelines.
func (n *Network) shift() {
	for i := range n.channels {
		ch := &n.channels[i]
		if ch.cur.valid {
			vc := n.routers[ch.link.Dst].inputs[ch.link.DstPort][ch.cur.vc]
			if ch.cur.flit.IsHead() {
				vc.AcceptHead(ch.cur.flit.Pkt, n.cycle)
			} else {
				vc.AcceptBody(ch.cur.flit.Pkt, n.cycle)
			}
		}
		ch.cur = ch.next
		ch.next = transit{}
		src := n.routers[ch.link.Src]
		for _, vc := range ch.creditNext {
			src.vcFree[ch.link.SrcPort][vc] = true
		}
		ch.creditNext = ch.creditNext[:0]
	}
}

// laneHost is the Network seen through fastpass.LaneHost: what the
// circulating lanes need of the fabric they ride.
type laneHost Network

// ClaimLink marks a link as carrying a lane flit this cycle; regular
// traffic yields to it (irRouter.sendable).
func (h *laneHost) ClaimLink(link int) {
	if h.claims[link] {
		panic(fmt.Sprintf("irrnet: walk link %d claimed twice in cycle %d — lanes overlap", link, h.cycle))
	}
	h.claims[link] = true
}

func (h *laneHost) VC(node, port, vc int) *router.VC { return h.routers[node].inputs[port][vc] }

func (h *laneHost) Occupancy(node int, occ []uint64) {
	for p, vcs := range h.routers[node].inputs {
		occ[p] = 0
		for v, q := range vcs {
			if !q.Empty() {
				occ[p] |= 1 << v
			}
		}
	}
}

func (h *laneHost) RemoveHead(node, port, vc int) *message.Packet {
	return h.routers[node].removeHead(port, vc)
}

// Admit requires a free landing slot at pkt's destination.
func (h *laneHost) Admit(pkt *message.Packet, landed int) bool {
	return h.landingRsv[pkt.Dst]+landed < h.prm.LandingCap
}

func (h *laneHost) Note(ev fastpass.LaneEvent, pkt *message.Packet, _ int) {
	switch ev {
	case fastpass.LaneBoarded:
		h.landingRsv[pkt.Dst]++
		h.Promoted++
	case fastpass.LaneLanded:
		h.LandingWaits++
	case fastpass.LaneDelivered:
		h.landingRsv[pkt.Dst]--
		h.Delivered++
	}
}

// removeHead extracts the head packet of (port, vc) — fully buffered,
// the lane engine has checked — releasing claims and crediting upstream.
func (r *irRouter) removeHead(port, vc int) *message.Packet {
	vcq := r.inputs[port][vc]
	e := vcq.Head()
	if e.Allocated {
		if e.OutPort == 0 {
			r.net.NICs[r.id].CancelEject(e.Pkt)
			r.ejecting[e.Pkt.Class] = false
		} else {
			r.vcFree[e.OutPort][e.OutVC] = true
		}
		e.Allocated = false
	}
	pkt := vcq.RemoveHead()
	if ch := r.in[port]; ch != nil {
		ch.creditNext = append(ch.creditNext, vc)
	}
	return pkt
}
