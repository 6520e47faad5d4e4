package irrnet

import (
	routerpkg "repro/internal/router"
	"repro/internal/topology"
)

// step runs one cycle of the router: VC allocation for unallocated
// heads, then two-stage switch allocation and flit transmission.
// Routing is table-based minimal adaptive (NextHopMinimal); claims made
// by the circulating lanes block regular transmission on their links,
// exactly as the mesh routers treat FastPass lookahead claims.
func (r *irRouter) step() {
	r.allocate()
	r.switchAllocate()
}

// outLink returns the directed link leaving through port p, or nil.
func (r *irRouter) outLink(p int) *topology.Link {
	return r.net.Topo.OutLink(r.id, topology.Direction(p))
}

// allocate performs VC allocation for every unallocated head entry, in
// rotating (port, vc) order.
func (r *irRouter) allocate() {
	var slots []int // encoded port*64+vc
	for p, vcs := range r.inputs {
		for v := range vcs {
			slots = append(slots, p*64+v)
		}
	}
	start := r.vaPtr % len(slots)
	for k := 0; k < len(slots); k++ {
		s := slots[(start+k)%len(slots)]
		p, v := s/64, s%64
		e := r.inputs[p][v].Head()
		if e == nil || e.Allocated || e.Arrived < 1 {
			continue
		}
		r.tryAllocate(e)
	}
	r.vaPtr = (start + 1) % len(slots)
}

func (r *irRouter) tryAllocate(e *routerEntry) {
	pkt := e.Pkt
	if pkt.Dst == r.id {
		if r.ejecting[pkt.Class] || !r.net.NICs[r.id].CanEject(pkt) {
			return
		}
		r.net.NICs[r.id].BeginEject(pkt)
		r.ejecting[pkt.Class] = true
		e.Allocate(0, int(pkt.Class))
		return
	}
	// Minimal adaptive: every productive port; prefer the port with the
	// most free downstream VCs.
	ports := r.net.Topo.NextHopMinimal(r.id, pkt.Dst)
	bestPort, bestScore := -1, 0
	for _, d := range ports {
		p := int(d)
		score := 0
		for v := range r.vcFree[p] {
			if r.vcFree[p][v] {
				score++
			}
		}
		if score > bestScore {
			bestScore = score
			bestPort = p
		}
	}
	if bestPort < 0 {
		return
	}
	for v := len(r.vcFree[bestPort]) - 1; v >= 0; v-- {
		if r.vcFree[bestPort][v] {
			r.vcFree[bestPort][v] = false
			e.Allocate(topology.Direction(bestPort), v)
			return
		}
	}
}

// sendable reports whether the head of (port, vc) can move a flit.
func (r *irRouter) sendable(p, v int) bool {
	e := r.inputs[p][v].Head()
	if e == nil || !e.Allocated || e.Sent >= e.Arrived {
		return false
	}
	if e.OutPort == 0 {
		return true
	}
	l := r.outLink(int(e.OutPort))
	return l != nil && !r.net.claims[l.ID]
}

// switchAllocate grants one flit per input port and per output port.
func (r *irRouter) switchAllocate() {
	nPorts := r.net.Topo.NumPorts()
	nominee := make([]int, nPorts)
	for p := 0; p < nPorts; p++ {
		p := p
		if p >= len(r.inputs) || len(r.inputs[p]) == 0 {
			nominee[p] = -1
			continue
		}
		nominee[p] = r.saInArb[p].Grant(func(v int) bool { return r.sendable(p, v) })
	}
	granted := make([]bool, nPorts)
	for out := 0; out < nPorts; out++ {
		out := out
		winner := r.saOutArb[out].Grant(func(in int) bool {
			if in >= len(nominee) || granted[in] || nominee[in] < 0 {
				return false
			}
			e := r.inputs[in][nominee[in]].Head()
			return int(e.OutPort) == out
		})
		if winner < 0 {
			continue
		}
		granted[winner] = true
		r.transmit(winner, nominee[winner])
	}
}

func (r *irRouter) transmit(in, vc int) {
	buf := r.inputs[in][vc]
	e := buf.Head()
	pkt := e.Pkt
	out := int(e.OutPort)
	outVC := int(e.OutVC)
	isHead := e.Sent == 0
	flit, done := buf.SendFlit(r.net.cycle)
	if isHead && in == 0 && pkt.InjectTime < 0 {
		pkt.InjectTime = r.net.cycle
	}
	if out == 0 {
		r.net.NICs[r.id].EjectFlit(r.net.cycle, flit)
		if done {
			r.ejecting[pkt.Class] = false
		}
	} else {
		if isHead {
			pkt.Hops++
		}
		l := r.outLink(out)
		ch := r.net.channelFor(l)
		ch.next = transit{flit: flit, vc: outVC, valid: true}
	}
	if done && in != 0 {
		if l := r.inLink(in); l != nil {
			ch := r.net.channelFor(l)
			ch.creditNext = append(ch.creditNext, vc)
		}
	}
}

// routerEntry aliases the shared VC entry type from the router package.
type routerEntry = routerpkg.Entry
