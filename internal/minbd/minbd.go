// Package minbd implements the MinBD baseline [Fallin et al., NOCS'12]:
// a minimally-buffered deflection network. Routers have no input VC
// buffers — every flit arriving on a link must leave on some output the
// next cycle. Flits contend for productive ports by packet age (oldest
// first); losers park in a small side buffer when it has room and are
// deflected onto whatever ports remain free otherwise. Flits of a packet
// travel independently and reassemble at the destination.
//
// Deflection wastes link bandwidth, which is why MinBD's throughput
// collapses well before the buffered schemes in Fig. 7 despite its tiny
// area (Fig. 11). Each hop costs one router cycle plus one link cycle,
// matching the buffered schemes' timing.
package minbd

import (
	"repro/internal/message"
	"repro/internal/ringq"
	"repro/internal/spare"
	"repro/internal/topology"
)

// Params tunes MinBD.
type Params struct {
	// EjectCap is the per-node ejection bandwidth in flits/cycle.
	EjectCap int
}

func (p *Params) setDefaults() {
	if p.EjectCap == 0 {
		p.EjectCap = 1
	}
}

// sideCap is the per-router side buffer capacity in flits (4 in the
// original design); a power of two, as the side ring's backing array
// must be.
const sideCap = 4

// Network is a deflection NoC instance. Everything Step touches is sized
// in New (DESIGN.md §9): link tables, register banks and side buffers
// are fixed; only the unbounded source queues and the reassembly table
// grow with the offered load.
type Network struct {
	Mesh *topology.Mesh
	prm  Params

	// next is the wire (written this cycle), mid the downstream pipeline
	// latch, cur the flits being routed this cycle. A nil Pkt means the
	// register is empty.
	cur, mid, next []message.Flit
	// regs backs the three banks and sideSlab the side buffers, whole:
	// what Release hands on.
	regs, sideSlab []message.Flit
	// inLinks[node][port] / outLinks[node][port] are the directed link
	// IDs entering and leaving each node, -1 at a mesh edge (and for
	// Local).
	inLinks, outLinks [][topology.NumMeshPorts]int

	side   []ringq.Ring[message.Flit]
	source []message.Queue // per node FIFO
	injSeq []int           // next flit of the head packet to inject

	// rx counts flits of each packet received at its destination.
	rx map[uint64]int

	cycle int64

	// OnEject observes fully reassembled packets.
	OnEject func(pkt *message.Packet)

	// Recycle, when set, receives every delivered packet right after
	// OnEject, its last observable moment (as nic.NIC.Recycle).
	Recycle func(pkt *message.Packet)

	// Deflections counts non-productive flit hops; SideBuffered counts
	// parks; Ejections counts delivered packets.
	Deflections, SideBuffered, Ejections int64

	resident int
}

// New builds a MinBD network.
func New(mesh *topology.Mesh, prm Params) *Network {
	mesh.RequireMesh("minbd")
	prm.setDefaults()
	nodes, links := mesh.NumNodes(), len(mesh.Links())
	regs := spareFlits.Take(3 * links)
	n := &Network{
		Mesh:     mesh,
		prm:      prm,
		cur:      regs[:links:links],
		mid:      regs[links : 2*links : 2*links],
		next:     regs[2*links : 3*links : 3*links],
		regs:     regs,
		inLinks:  sparePorts.Take(nodes),
		outLinks: sparePorts.Take(nodes),
		side:     spareRings.Take(nodes),
		source:   spareQueues.Take(nodes),
		injSeq:   spareInts.Take(nodes),
		rx:       spareRx.Take(0),
	}
	n.sideSlab = spareFlits.Take(nodes * sideCap)
	for node := 0; node < nodes; node++ {
		for d := topology.Local; d < topology.NumMeshPorts; d++ {
			n.inLinks[node][d], n.outLinks[node][d] = -1, -1
			if l := mesh.InLink(node, d); l != nil {
				n.inLinks[node][d] = l.ID
			}
			if l := mesh.OutLink(node, d); l != nil {
				n.outLinks[node][d] = l.ID
			}
		}
		n.side[node].Adopt(n.sideSlab[node*sideCap : (node+1)*sideCap])
	}
	return n
}

// The stores New takes its arrays and reassembly table from and Release
// returns them to.
var (
	spareFlits  spare.Store[message.Flit]
	sparePorts  spare.Store[[topology.NumMeshPorts]int]
	spareRings  spare.Store[ringq.Ring[message.Flit]]
	spareQueues spare.Store[message.Queue]
	spareInts   spare.Store[int]
	spareRx     spare.Maps[uint64, int]
)

// Release hands every array New took, and the reassembly table, to a
// later New in the process. Nothing may step n afterwards.
func (n *Network) Release() {
	spareFlits.Put(n.regs)
	spareFlits.Put(n.sideSlab)
	sparePorts.Put(n.inLinks)
	sparePorts.Put(n.outLinks)
	spareRings.Put(n.side)
	spareQueues.Put(n.source)
	spareInts.Put(n.injSeq)
	spareRx.Put(n.rx)
	*n = Network{}
}

// Cycle reports the current cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// EnqueueSource queues a packet for injection at its source node.
func (n *Network) EnqueueSource(pkt *message.Packet) {
	n.source[pkt.Src].PushBack(pkt)
}

// Resident reports packets with flits in flight or side-buffered.
func (n *Network) Resident() int { return n.resident }

// SourceBacklog reports un-injected packets (a partially injected head
// packet still counts).
func (n *Network) SourceBacklog() int {
	t := 0
	for i := range n.source {
		t += n.source[i].Len()
	}
	return t
}

// older orders flits by packet age, then packet ID, then flit sequence —
// a total order on distinct flits, so any correct sort of a router's
// arrivals yields the same permutation.
func older(a, b message.Flit) bool {
	if a.Pkt.CreateTime != b.Pkt.CreateTime {
		return a.Pkt.CreateTime < b.Pkt.CreateTime
	}
	if a.Pkt.ID != b.Pkt.ID {
		return a.Pkt.ID < b.Pkt.ID
	}
	return a.Seq < b.Seq
}

// Step advances one cycle.
//
//nocvet:hot
func (n *Network) Step() {
	for node := 0; node < n.Mesh.NumNodes(); node++ {
		n.stepRouter(node)
	}
	n.cur, n.mid, n.next = n.mid, n.next, n.cur
	clear(n.next)
	n.cycle++
}

// routerCycle is one router's per-cycle allocation state: which output
// ports are taken (bit per Direction) and how much ejection bandwidth is
// spent.
type routerCycle struct {
	node    int
	taken   uint8
	ejected int
}

// assign drives f onto a free productive output port of the router, or —
// unless productiveOnly — deflects it onto the first free port in
// North, East, South, West order. It reports whether f left.
func (n *Network) assign(rc *routerCycle, f message.Flit, productiveOnly bool) bool {
	out := &n.outLinks[rc.node]
	var dirBuf [2]topology.Direction
	for _, d := range n.Mesh.AppendPortToward(dirBuf[:0], rc.node, f.Pkt.Dst) {
		if id := out[d]; id >= 0 && rc.taken&(1<<d) == 0 {
			rc.taken |= 1 << d
			n.next[id] = f
			if f.IsHead() {
				f.Pkt.Hops++
			}
			return true
		}
	}
	if productiveOnly {
		return false
	}
	for d := topology.North; d <= topology.West; d++ {
		if id := out[d]; id >= 0 && rc.taken&(1<<d) == 0 {
			rc.taken |= 1 << d
			n.next[id] = f
			n.Deflections++
			return true
		}
	}
	return false
}

// tryEject consumes one flit of ejection bandwidth; when the last flit
// of a packet lands, the packet completes and is released (f.Pkt is
// dead to the caller). The caller adjusts the resident count
// (source-side flits were never resident).
func (n *Network) tryEject(rc *routerCycle, f message.Flit) (consumed, completed bool) {
	if f.Pkt.Dst != rc.node || rc.ejected >= n.prm.EjectCap {
		return false, false
	}
	rc.ejected++
	n.rx[f.Pkt.ID]++
	if n.rx[f.Pkt.ID] == f.Pkt.Len {
		delete(n.rx, f.Pkt.ID)
		f.Pkt.EjectTime = n.cycle
		n.Ejections++
		if n.OnEject != nil {
			n.OnEject(f.Pkt)
		}
		if n.Recycle != nil {
			n.Recycle(f.Pkt)
		}
		return true, true
	}
	return true, false
}

func (n *Network) stepRouter(node int) {
	// At most one arrival per input port; insertion-sort them oldest
	// first as they are collected.
	var arrivals [topology.NumMeshPorts - 1]message.Flit
	na := 0
	for _, id := range n.inLinks[node][topology.North:] {
		if id < 0 || n.cur[id].Pkt == nil {
			continue
		}
		i := na
		for ; i > 0 && older(n.cur[id], arrivals[i-1]); i-- {
			arrivals[i] = arrivals[i-1]
		}
		arrivals[i] = n.cur[id]
		na++
	}
	rc := routerCycle{node: node}

	// Pass 1: link arrivals (oldest first): eject, else productive port.
	var leftovers [topology.NumMeshPorts - 1]message.Flit
	nl := 0
	for _, f := range arrivals[:na] {
		if consumed, completed := n.tryEject(&rc, f); consumed {
			if completed {
				n.resident--
			}
			continue
		}
		if !n.assign(&rc, f, true) {
			leftovers[nl] = f
			nl++
		}
	}
	// Pass 2: losers park in the side buffer when it has room, else
	// deflect (pigeonhole guarantees a free port for link arrivals).
	side := &n.side[node]
	for _, f := range leftovers[:nl] {
		if side.Len() < sideCap {
			side.PushBack(f)
			n.SideBuffered++
			continue
		}
		if !n.assign(&rc, f, false) {
			panic("minbd: link arrival had no output port")
		}
	}
	// Pass 3: side buffer re-entry onto productive free ports only.
	if side.Len() > 0 {
		f := side.Front()
		if consumed, completed := n.tryEject(&rc, f); consumed {
			if completed {
				n.resident--
			}
			side.PopFront()
		} else if n.assign(&rc, f, true) {
			side.PopFront()
		}
	}
	// Pass 4: inject the next flit of the head source packet.
	if source := &n.source[node]; source.Len() > 0 {
		pkt := source.Front()
		f := message.Flit{Pkt: pkt, Seq: n.injSeq[node]}
		tail, injected := f.IsTail(), false
		if pkt.Dst == node {
			// Self-addressed: injection feeds ejection directly; the
			// packet never becomes network-resident. Its tail completes
			// and releases it inside tryEject, so it leaves the source
			// queue first.
			if rc.ejected < n.prm.EjectCap {
				if tail {
					source.PopFront()
				}
				_, completed := n.tryEject(&rc, f)
				injected = true
				if f.IsHead() && !completed {
					pkt.InjectTime = n.cycle
				}
			}
		} else if n.assign(&rc, f, true) {
			injected = true
			if f.IsHead() {
				pkt.InjectTime = n.cycle
				n.resident++
			}
			if tail {
				source.PopFront()
			}
		}
		if injected {
			n.injSeq[node]++
			if tail {
				n.injSeq[node] = 0
			}
		}
	}
}

// Run advances k cycles.
func (n *Network) Run(k int) {
	for i := 0; i < k; i++ {
		n.Step()
	}
}
