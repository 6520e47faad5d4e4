package irrnet

import (
	"repro/internal/message"
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

// allocate performs VC allocation for every unallocated head entry, in
// rotating (port, vc) order: the injection queues, then each network
// port's VCs.
func (r *irRouter) allocate() {
	inj, vcs := int(message.NumClasses), r.net.prm.VCs
	slots := inj + (len(r.inputs)-1)*vcs
	for k := 0; k < slots; k++ {
		p, v := 0, (r.vaPtr+k)%slots
		if v >= inj {
			p, v = 1+(v-inj)/vcs, (v-inj)%vcs
		}
		e := r.inputs[p][v].Head()
		if e == nil || e.Allocated || e.Arrived < 1 {
			continue
		}
		r.tryAllocate(e)
	}
	r.vaPtr = (r.vaPtr + 1) % slots
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
	bestPort, bestScore := -1, 0
	for _, d := range r.next[pkt.Dst] {
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
	return e.OutPort == 0 || !r.net.claims[r.out[e.OutPort].link.ID]
}

// switchAllocate grants one flit per input port and per output port.
func (r *irRouter) switchAllocate() {
	for p, vcs := range r.inputs {
		var reqs uint64
		for v := range vcs {
			if r.sendable(p, v) {
				reqs |= 1 << v
			}
		}
		r.nominee[p] = r.saInArb[p].GrantMask(reqs)
	}
	for out := range r.inputs {
		var reqs uint64
		for in, v := range r.nominee {
			if v >= 0 && int(r.inputs[in][v].Head().OutPort) == out {
				reqs |= 1 << in
			}
		}
		if winner := r.saOutArb[out].GrantMask(reqs); winner >= 0 {
			r.transmit(winner, r.nominee[winner])
			r.nominee[winner] = -1
		}
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
		r.out[out].next = transit{flit: flit, vc: outVC, valid: true}
	}
	if ch := r.in[in]; done && ch != nil {
		ch.creditNext = append(ch.creditNext, vc)
	}
}

// routerEntry aliases the shared VC entry type from the router package.
type routerEntry = routerpkg.Entry
