package router

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// refRouter is the router as it stood before the mask rewrite: every
// (port, vc) slot walked twice a cycle through []bool request vectors, a
// closure-driven slice arbiter, the route recomputed at every VA attempt,
// and claims and stalls asked of the Env per head and per port. Step,
// allocateVCs, tryAllocate, allowedPorts, switchAllocate, sendable,
// transmit, the two RemoveHeadPackets and the credit section of
// SnapshotState are that code verbatim (receiver renamed); only the
// constructor is new, since the slab it was carved from is gone.
// TestRouterMatchesReference steps it in lockstep with Router.

// Grant returns the winning index among the requesters for which
// request(i) is true, or -1 when none request. The pointer only advances
// when a grant is issued.
func (a *RRArbiter) Grant(request func(i int) bool) int {
	n := int(a.n)
	for k := 0; k < n; k++ {
		i := (int(a.next) + k) % n
		if request(i) {
			a.next = uint8((i + 1) % n)
			return i
		}
	}
	return -1
}

// GrantSlice is Grant over a boolean slice (len must equal n) — the
// arbiter entry point the old allocators used.
func (a *RRArbiter) GrantSlice(reqs []bool) int {
	if len(reqs) != int(a.n) {
		panic("router: request slice length mismatch")
	}
	return a.Grant(func(i int) bool { return reqs[i] })
}

// refEnv is the Env as the reference knew it, with the three queries the
// router now gets pushed instead.
type refEnv interface {
	Env
	LinkClaimed(linkID int) bool
	EjectClaimed(node int) bool
	InputStalled(node int, port int) bool
}

type refRouter struct {
	ID   int
	Mesh *topology.Mesh
	Cfg  Config
	Env  refEnv

	Inputs [nPorts]InputUnit

	// outLinks[port] / inLinks[port] are directed link IDs, -1 where
	// the mesh edge has no neighbour.
	outLinks, inLinks [nPorts]int

	// vcFree tracks downstream VC availability per output port; it is
	// the credit state of virtual cut-through with one packet per VC: a
	// downstream VC is either wholly free or owned by one packet.
	vcFree [nPorts][]bool

	// ejecting marks classes with a regular packet mid-ejection.
	ejecting [message.NumClasses]bool

	// resident counts packets buffered across all VCs; the VCs keep it
	// current (see VC.Resident) so Occupied is O(1). An empty router's
	// Step is a provable no-op, which is what lets the network's
	// active-set scheduler skip it.
	resident int

	// FlitsRouted counts flits moved through the crossbar over the
	// router's lifetime; SwitchStalls counts (cycle, input port) pairs
	// where a nominated flit lost switch allocation. Both are cumulative
	// telemetry counters: written only by this router's Step, read only
	// by window-close code, and part of the checkpoint.
	FlitsRouted  int64
	SwitchStalls int64

	saInArb  [nPorts]RRArbiter // stage 1: per input port over VCs
	saOutArb [nPorts]RRArbiter // stage 2: per output port over input ports
	portTie  RRArbiter         // adaptive output-port tie-break

	// Per-cycle scratch (hot path). slots is the (port, vc) enumeration
	// VA rotates over — identical for every router of a config, so one
	// read-only table serves them all.
	slots   []vaSlot
	nominee [nPorts]int
	granted [nPorts]bool
	isBest  [nPorts]bool
	// VA scratch: candidate ports and per-port allowed VC lists.
	// candPorts, bestPorts and routeBuf are windows onto dirBuf.
	candPorts []topology.Direction
	candVCs   [nPorts][]int
	bestPorts []topology.Direction
	routeBuf  []topology.Direction
	dirBuf    [2*nPorts + 2]topology.Direction
	// SA scratch: per-port VC request vectors and the output-stage
	// request vector (avoids per-cycle closure allocations).
	saReqs  [nPorts][]bool
	saOutRq [nPorts]bool
}

type vaSlot struct {
	port topology.Direction
	vc   int
}

// vnOf returns the VN of a packet under this router's config.
func (r *refRouter) vnOf(pkt *message.Packet) int { return r.Cfg.ClassVN(pkt.Class) }

// allowedPorts fills the router's VA scratch with, for a head packet,
// the candidate output ports and for each the usable VC indices
// (global), honouring per-VC routing algorithms. Local (ejection) is
// handled separately. The returned slices alias router scratch and are
// valid until the next call.
func (r *refRouter) allowedPorts(pkt *message.Packet) []topology.Direction {
	vn := r.vnOf(pkt)
	r.candPorts = r.candPorts[:0]
	for p := range r.candVCs {
		r.candVCs[p] = r.candVCs[p][:0]
	}
	for vcIdx, alg := range r.Cfg.VCAlgorithms {
		f := routing.ForAlgorithm(alg)
		for _, p := range f(r.Mesh, r.routeBuf[:0], r.ID, pkt.Dst) {
			if r.outLinks[p] < 0 {
				continue
			}
			gvc := vn*r.Cfg.VCsPerVN + vcIdx
			if len(r.candVCs[p]) == 0 {
				r.candPorts = append(r.candPorts, p)
			}
			r.candVCs[p] = append(r.candVCs[p], gvc)
		}
	}
	return r.candPorts
}

// Step runs one cycle of the router: VC allocation for fresh heads,
// then switch allocation and flit transmission.
func (r *refRouter) Step() {
	r.allocateVCs()
	r.switchAllocate()
}

// allocateVCs performs VC allocation for every unallocated head entry,
// in round-robin order across (port, vc). The rotation start is derived
// from the cycle number rather than kept in a stateful arbiter: the old
// pointer advanced unconditionally every cycle, so it always equalled
// cycle mod len(slots) — deriving it makes an idle cycle a true no-op,
// which the active-set scheduler depends on to skip empty routers
// without perturbing arbitration.
func (r *refRouter) allocateVCs() {
	start := int(r.Env.Cycle() % int64(len(r.slots)))
	for k := 0; k < len(r.slots); k++ {
		s := r.slots[(start+k)%len(r.slots)]
		e := r.Inputs[s.port].VCs[s.vc].Head()
		if e == nil || e.Allocated || e.Arrived < 1 {
			continue
		}
		r.tryAllocate(e)
	}
}

// tryAllocate attempts VC allocation for one head entry.
func (r *refRouter) tryAllocate(e *Entry) {
	pkt := e.Pkt
	if pkt.Dst == r.ID {
		// Ejection: one packet per class at a time, NIC space required
		// (reservations honoured by the Env).
		if r.ejecting[pkt.Class] || !r.Env.CanEject(r.ID, pkt) {
			return
		}
		r.Env.BeginEject(r.ID, pkt)
		r.ejecting[pkt.Class] = true
		e.Allocate(topology.Local, int(pkt.Class))
		return
	}
	ports := r.allowedPorts(pkt)
	// Keep only ports with at least one free allowed VC downstream.
	bestScore := 0
	best := r.bestPorts[:0]
	for _, p := range ports {
		score := 0
		for _, gvc := range r.candVCs[p] {
			if r.vcFree[p][gvc] {
				score++
			}
		}
		if score == 0 {
			continue
		}
		if score > bestScore {
			bestScore = score
			best = best[:0]
		}
		if score == bestScore {
			best = append(best, p)
		}
	}
	if len(best) == 0 {
		return
	}
	// Tie-break with a rotating pointer so symmetric traffic spreads.
	choice := best[0]
	if len(best) > 1 {
		r.isBest = [nPorts]bool{}
		for _, p := range best {
			r.isBest[p] = true
		}
		if g := r.portTie.GrantSlice(r.isBest[:]); g >= 0 {
			choice = topology.Direction(g)
		}
	}
	// Prefer the highest-index free VC: adaptive channels before the
	// escape channel, which stays available as the guaranteed drain.
	vcs := r.candVCs[choice]
	pick := -1
	for _, gvc := range vcs {
		if r.vcFree[choice][gvc] && gvc > pick {
			pick = gvc
		}
	}
	if pick < 0 {
		return
	}
	r.vcFree[choice][pick] = false
	e.Allocate(choice, pick)
}

// switchAllocate runs the two-stage separable switch allocator and
// transmits winning flits.
func (r *refRouter) switchAllocate() {
	// Stage 1: each input port nominates one VC with a sendable flit. A
	// fault-stalled input port nominates nothing: its buffered flits
	// are frozen in place until the stall clears (or the watchdogs give
	// up on them).
	nominee := &r.nominee
	for p := 0; p < nPorts; p++ {
		vcs := r.Inputs[p].VCs
		reqs := r.saReqs[p]
		if r.Env.InputStalled(r.ID, p) {
			nominee[p] = -1
			continue
		}
		for v := range vcs {
			reqs[v] = r.sendable(&vcs[v])
		}
		nominee[p] = r.saInArb[p].GrantSlice(reqs)
	}
	// Stage 2: each output port picks among nominating inputs.
	granted := &r.granted
	*granted = [nPorts]bool{}
	for out := 0; out < nPorts; out++ {
		rq := r.saOutRq[:]
		any := false
		for in := 0; in < nPorts; in++ {
			rq[in] = false
			if granted[in] || nominee[in] < 0 {
				continue
			}
			e := r.Inputs[in].VCs[nominee[in]].Head()
			if int(e.OutPort) == out {
				rq[in] = true
				any = true
			}
		}
		if !any {
			continue
		}
		winner := r.saOutArb[out].GrantSlice(rq)
		if winner < 0 {
			continue
		}
		granted[winner] = true
		r.transmit(topology.Direction(winner), nominee[winner])
	}
	// An input whose nominated flit no output granted spent the cycle
	// stalled in switch allocation — the contention signal the telemetry
	// windows track.
	for p := 0; p < nPorts; p++ {
		if nominee[p] >= 0 && !granted[p] {
			r.SwitchStalls++
		}
	}
}

// sendable reports whether the VC's head entry can move a flit this
// cycle.
func (r *refRouter) sendable(v *VC) bool {
	e := v.Head()
	if e == nil || !e.Allocated || e.Sent >= e.Arrived {
		return false
	}
	if e.Out() == topology.Local {
		return !r.Env.EjectClaimed(r.ID)
	}
	return !r.Env.LinkClaimed(r.outLinks[e.OutPort])
}

// transmit moves one flit of the head packet at (in, vc) through the
// crossbar.
func (r *refRouter) transmit(in topology.Direction, vc int) {
	cycle := r.Env.Cycle()
	buf := &r.Inputs[in].VCs[vc]
	e := buf.Head()
	// Capture everything needed from the entry now: SendFlit zeroes its
	// slot when the tail departs.
	pkt := e.Pkt
	out := e.Out()
	outVC := int(e.OutVC)
	isHead := e.Sent == 0
	flit, done := buf.SendFlit(cycle)
	r.FlitsRouted++
	if isHead && in == topology.Local && pkt.InjectTime < 0 {
		pkt.InjectTime = cycle
	}
	if out == topology.Local {
		r.Env.EjectFlit(r.ID, flit)
		if done {
			r.ejecting[pkt.Class] = false
		}
	} else {
		if isHead {
			pkt.Hops++
		}
		r.Env.SendFlit(r.outLinks[out], flit, outVC)
	}
	if done && in != topology.Local && r.inLinks[in] >= 0 {
		// The tail left this network VC: credit the upstream router.
		// (Edge ports with no physical in-link can only be populated by
		// test/controller insertion; there is no upstream to credit.)
		r.Env.SendVCFree(r.inLinks[in], vc)
	}
}

// RemoveHeadPacket atomically extracts the fully-buffered head packet of
// (port, vc), releasing any downstream VC it had claimed and crediting
// the upstream router. Used by FastPass upgrades and the forced-move
// primitives of SPIN/SWAP/DRAIN. Returns nil when the head is missing,
// streaming, or partially sent.
func (r *refRouter) RemoveHeadPacket(port topology.Direction, vc int) *message.Packet {
	buf := &r.Inputs[port].VCs[vc]
	e := buf.Head()
	if e == nil || !e.FullyBuffered() {
		return nil
	}
	if e.Allocated {
		switch {
		case e.Out() == topology.Local:
			r.Env.CancelEject(r.ID, e.Pkt)
			r.ejecting[e.Pkt.Class] = false
		default:
			r.vcFree[e.OutPort][e.OutVC] = true
		}
		e.Allocated = false
	}
	pkt := buf.RemoveHead()
	if port != topology.Local && r.inLinks[port] >= 0 {
		// The paper's prime router "increases the credit for the
		// upstream router as soon as a FastPass-Packet departs"
		// (§III-C4); forced moves behave identically.
		r.Env.SendVCFree(r.inLinks[port], vc)
	}
	return pkt
}

// RemoveHeadPacketNoCredit is RemoveHeadPacket without the upstream
// VC-free credit. Synchronized forced moves (SWAP exchanges, SPIN spins,
// DRAIN rotations) refill the freed slot in the same cycle, so from the
// upstream router's perspective the VC never became free; crediting it
// would let the upstream allocate the slot and collide with the
// refill.
func (r *refRouter) RemoveHeadPacketNoCredit(port topology.Direction, vc int) *message.Packet {
	buf := &r.Inputs[port].VCs[vc]
	e := buf.Head()
	if e == nil || !e.FullyBuffered() {
		return nil
	}
	if e.Allocated {
		switch {
		case e.Out() == topology.Local:
			r.Env.CancelEject(r.ID, e.Pkt)
			r.ejecting[e.Pkt.Class] = false
		default:
			r.vcFree[e.OutPort][e.OutVC] = true
		}
		e.Allocated = false
	}
	return buf.RemoveHead()
}

// MarkVCFree, ClaimDownstreamVC and the insertion entry points are the
// old one-liners over []bool credits and the VC API.
func (r *refRouter) MarkVCFree(port topology.Direction, vc int)        { r.vcFree[port][vc] = true }
func (r *refRouter) ClaimDownstreamVC(port topology.Direction, vc int) { r.vcFree[port][vc] = false }
func (r *refRouter) VCFor(port topology.Direction, vc int) *VC         { return &r.Inputs[port].VCs[vc] }
func (r *refRouter) CreditUpstream(port topology.Direction, vc int) {
	if port != topology.Local && r.inLinks[port] >= 0 {
		r.Env.SendVCFree(r.inLinks[port], vc)
	}
}
func (r *refRouter) DeliverHead(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].AcceptHead(pkt, r.Env.Cycle())
	r.Env.WakeRouter(r.ID)
}
func (r *refRouter) DeliverBody(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].AcceptBody(pkt, r.Env.Cycle())
}
func (r *refRouter) Deliver(port topology.Direction, vc int, f message.Flit, _ int64) {
	if f.IsHead() {
		r.DeliverHead(port, vc, f.Pkt)
	} else {
		r.DeliverBody(port, vc, f.Pkt)
	}
}
func (r *refRouter) InsertPacket(port topology.Direction, vc int, pkt *message.Packet) bool {
	buf := &r.Inputs[port].VCs[vc]
	if !buf.CanAccept(pkt.Len) {
		return false
	}
	buf.EnqueueWhole(pkt, r.Env.Cycle())
	r.Env.WakeRouter(r.ID)
	return true
}
func (r *refRouter) InjectPacket(pkt *message.Packet) bool {
	return r.InsertPacket(topology.Local, int(pkt.Class), pkt)
}
func (r *refRouter) InsertFrontOverflow(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].EnqueueFrontOverflow(pkt, r.Env.Cycle())
	r.Env.WakeRouter(r.ID)
}

// SnapshotState is the old encoder: one Bool per []bool credit.
func (rt *refRouter) SnapshotState(w *snapshot.Writer) {
	for p := 1; p < len(rt.vcFree); p++ {
		for _, free := range rt.vcFree[p] {
			w.Bool(free)
		}
	}
	for c := range rt.ejecting {
		w.Bool(rt.ejecting[c])
	}
	for p := range rt.Inputs {
		walkVCs(w.State(), rt.Inputs[p].VCs)
	}
	for _, a := range rt.saInArb {
		w.Int(int(a.next))
	}
	for _, a := range rt.saOutArb {
		w.Int(int(a.next))
	}
	w.Int(int(rt.portTie.next))
	w.I64(rt.FlitsRouted)
	w.I64(rt.SwitchStalls)
}

// newRefRouter wires a refRouter the way the old build did, with plain
// allocations where that carved a slab.
func newRefRouter(id int, mesh *topology.Mesh, cfg Config, env refEnv) *refRouter {
	r := &refRouter{ID: id, Mesh: mesh, Cfg: cfg, Env: env}
	r.candPorts = r.dirBuf[0:0:nPorts]
	r.bestPorts = r.dirBuf[nPorts : nPorts : 2*nPorts]
	r.routeBuf = r.dirBuf[2*nPorts : 2*nPorts]
	r.portTie.n = uint8(nPorts)
	for c := 0; c < int(message.NumClasses); c++ {
		r.slots = append(r.slots, vaSlot{topology.Local, c})
	}
	for p := 0; p < nPorts; p++ {
		d := topology.Direction(p)
		r.outLinks[p], r.inLinks[p] = -1, -1
		if l := mesh.OutLink(id, d); l != nil {
			r.outLinks[p] = l.ID
		}
		if l := mesh.InLink(id, d); l != nil {
			r.inLinks[p] = l.ID
		}
		iu := &r.Inputs[p]
		if p == int(topology.Local) {
			iu.VCs = make([]VC, message.NumClasses)
			for c := range iu.VCs {
				iu.VCs[c].init(cfg.InjQueueFlits, cfg.InjQueueFlits)
			}
		} else {
			iu.VCs = make([]VC, cfg.NetVCs())
			r.vcFree[p] = make([]bool, cfg.NetVCs())
			for v := range iu.VCs {
				iu.VCs[v].init(cfg.BufFlits, 1)
				r.vcFree[p][v] = true
				r.slots = append(r.slots, vaSlot{d, v})
			}
			r.candVCs[p] = make([]int, 0, cfg.NetVCs())
		}
		r.saReqs[p] = make([]bool, len(iu.VCs))
		r.saInArb[p].n = uint8(len(iu.VCs))
		r.saOutArb[p].n = uint8(nPorts)
	}
	return r
}

// --- lockstep harness ---

// envCall is one entry of a scriptEnv's call log.
type envCall struct {
	op      string
	a, b, c int
	pkt     uint64
}

// scriptEnv is a seeded refEnv whose answers are pure functions of (seed,
// cycle, arguments), so two routers asking the same questions in the same
// cycle hear the same answers whatever else they asked: links and the
// ejection port are claimed, input ports stall for stretches of cycles,
// and CanEject refuses. push hands the mask router the claims and stalls
// the reference asks for. Every call but the three claim and stall
// queries is logged in order.
type scriptEnv struct {
	seed  uint64
	cycle int64
	log   []envCall
}

func (e *scriptEnv) chance(pct uint64, salt string, cycle int64, a int) bool {
	h := e.seed ^ 0x9e3779b97f4a7c15
	for _, x := range []uint64{uint64(len(salt)), uint64(salt[0]), uint64(cycle), uint64(a)} {
		h = (h ^ x) * 0x100000001b3
		h ^= h >> 29
	}
	return h%100 < pct
}
func (e *scriptEnv) note(op string, a, b, c int, pkt uint64) {
	e.log = append(e.log, envCall{op, a, b, c, pkt})
}
func (e *scriptEnv) Cycle() int64                  { return e.cycle }
func (e *scriptEnv) LinkClaimed(id int) bool       { return e.chance(20, "link", e.cycle, id) }
func (e *scriptEnv) EjectClaimed(n int) bool       { return e.chance(15, "eject", e.cycle, n) }
func (e *scriptEnv) InputStalled(n, port int) bool { return e.chance(12, "stall", e.cycle/6, port) }
func (e *scriptEnv) SendFlit(id int, f message.Flit, outVC int) {
	e.note("SendFlit", id, f.Seq, outVC, f.Pkt.ID)
}
func (e *scriptEnv) SendVCFree(id, vc int) { e.note("SendVCFree", id, vc, 0, 0) }
func (e *scriptEnv) CanEject(n int, p *message.Packet) bool {
	e.note("CanEject", n, 0, 0, p.ID)
	return !e.chance(30, "can", e.cycle, int(p.ID))
}
func (e *scriptEnv) BeginEject(n int, p *message.Packet)  { e.note("BeginEject", n, 0, 0, p.ID) }
func (e *scriptEnv) CancelEject(n int, p *message.Packet) { e.note("CancelEject", n, 0, 0, p.ID) }
func (e *scriptEnv) EjectFlit(n int, f message.Flit)      { e.note("EjectFlit", n, f.Seq, 0, f.Pkt.ID) }
func (e *scriptEnv) WakeRouter(n int)                     { e.note("WakeRouter", n, 0, 0, 0) }

// claims returns the claim and stall masks this cycle's answers make for
// router r, as the network would push them.
func (e *scriptEnv) claims(r *Router) (out, in uint8) {
	for p := topology.Direction(0); int(p) < nPorts; p++ {
		if p == topology.Local && e.EjectClaimed(r.ID) || p != topology.Local && r.outLinks[p] >= 0 && e.LinkClaimed(int(r.outLinks[p])) {
			out |= 1 << p
		}
		if e.InputStalled(r.ID, int(p)) {
			in |= 1 << p
		}
	}
	return out, in
}

// push does for the mask router what the network does before routers
// step: last cycle's claims and stalls go, this cycle's come in.
func (e *scriptEnv) push(r *Router) {
	r.Claimed, r.Stalled = e.claims(r)
}

// lockstepRouter is what the harness drives: both routers have it.
type lockstepRouter interface {
	Step()
	VCFor(topology.Direction, int) *VC
	MarkVCFree(topology.Direction, int)
	ClaimDownstreamVC(topology.Direction, int)
	Deliver(topology.Direction, int, message.Flit, int64)
	InjectPacket(*message.Packet) bool
	InsertPacket(topology.Direction, int, *message.Packet) bool
	InsertFrontOverflow(topology.Direction, int, *message.Packet)
	RemoveHeadPacket(topology.Direction, int) *message.Packet
	RemoveHeadPacketNoCredit(topology.Direction, int) *message.Packet
	SnapshotState(*snapshot.Writer)
}

// side is one router under test with its own Env, RNG and packets; the
// two sides draw identical random numbers as long as their state agrees,
// which the harness checks every cycle.
type side struct {
	rt     lockstepRouter
	env    *scriptEnv
	rng    *rand.Rand
	nextID uint64
	id     int
	mesh   *topology.Mesh
	cfg    Config
}

func (s *side) newPacket(class message.Class) *message.Packet {
	s.nextID++
	dst := s.rng.Intn(s.mesh.NumNodes()) // now and then this very node: ejection
	return message.NewPacket(s.nextID, s.id, dst, class, 1+s.rng.Intn(s.cfg.BufFlits), s.env.cycle)
}

// classFor picks a class whose VN owns network VC vc.
func (s *side) classFor(vc int) message.Class {
	for {
		c := message.Class(s.rng.Intn(int(message.NumClasses)))
		if s.cfg.ClassVN(c) == vc/s.cfg.VCsPerVN {
			return c
		}
	}
}

// meddle does between two steps what the network and the controllers do
// to a router: flits and credits arrive, the NIC injects, and packets are
// inserted, parked at the front (also ahead of an allocated head), pulled
// from the head — allocated or not, with or without the upstream credit —
// or from the middle of a queue. Credits come back on every port, on one
// port only, or not at all, so heads block and stay blocked through
// credits for ports they cannot take; in a drought no packet arrives, and
// credits and removals are scarce, so whole routers park.
func (s *side) meddle() {
	rt, rng, nv := s.rt, s.rng, s.cfg.NetVCs()
	drought, removeOdds := s.env.cycle%512 >= 288, 40
	creditPort := topology.Direction(rng.Intn(nPorts + 1)) // 0: all ports; nPorts: none
	if drought {
		removeOdds *= 10
		if rng.Intn(8) != 0 {
			creditPort = topology.NumMeshPorts
		}
	}
	for p := topology.Direction(1); int(p) < nPorts; p++ {
		for v := 0; v < nv; v++ {
			q := rt.VCFor(p, v)
			switch {
			case q.Empty() && drought:
			case q.Empty() && rng.Intn(6) == 0:
				rt.Deliver(p, v, message.Flit{Pkt: s.newPacket(s.classFor(v))}, s.env.cycle)
			case q.Empty() && rng.Intn(25) == 0:
				rt.InsertPacket(p, v, s.newPacket(s.classFor(v)))
			case !q.Empty():
				if e := q.EntryAt(q.Len() - 1); int(e.Arrived) < e.Pkt.Len && rng.Intn(4) != 0 {
					rt.Deliver(p, v, message.Flit{Pkt: e.Pkt, Seq: int(e.Arrived)}, s.env.cycle)
				}
				switch rng.Intn(removeOdds) {
				case 0:
					rt.RemoveHeadPacket(p, v)
				case 1, 2:
					rt.RemoveHeadPacketNoCredit(p, v)
				}
			}
			if creditPort != 0 && creditPort != p {
				continue
			}
			switch rng.Intn(12) {
			case 0, 1, 2:
				rt.MarkVCFree(p, v)
			case 3:
				rt.ClaimDownstreamVC(p, v)
			}
		}
	}
	for c := message.Class(0); c < message.NumClasses && !drought; c++ {
		q := rt.VCFor(topology.Local, int(c))
		switch rng.Intn(12) {
		case 0, 1, 2:
			rt.InjectPacket(s.newPacket(c))
		case 3:
			rt.InsertFrontOverflow(topology.Local, int(c), s.newPacket(c))
		case 4:
			rt.RemoveHeadPacket(topology.Local, int(c))
		case 5:
			// fastpass.park's victim pick: any fully buffered packet.
			if i := rng.Intn(4); i < q.Len() && q.EntryAt(i).FullyBuffered() && !q.EntryAt(i).Allocated {
				q.RemoveAt(i)
			}
		case 6:
			if h := q.Head(); h != nil && h.Allocated {
				rt.RemoveHeadPacketNoCredit(topology.Local, int(c))
			}
		case 7:
			if h := q.Head(); h != nil && h.Allocated && h.Sent == 0 {
				rt.InsertFrontOverflow(topology.Local, int(c), s.newPacket(c))
			}
		}
	}
}

// checkMasks holds the masks to what they claim: alloc is exactly the
// heads' Allocated flags and ready their Sent < Arrived; the claim and
// stall masks are what env answers this cycle; and a blocked head is
// unallocated, bound elsewhere than this node, and would fail VA afresh —
// no VC its routing allows is free downstream — unless that VC's port
// has gained a credit since the last VA pass.
func checkMasks(r *Router, env *scriptEnv) error {
	if out, in := env.claims(r); out != r.Claimed || in != r.Stalled {
		return fmt.Errorf("claimed/stalled masks are %05b/%05b, the env says %05b/%05b", r.Claimed, r.Stalled, out, in)
	}
	for p := range r.Inputs {
		for v := range r.Inputs[p].VCs {
			h := r.Inputs[p].VCs[v].Head()
			if got, want := r.alloc[p]>>v&1 != 0, h != nil && h.Allocated; got != want {
				return fmt.Errorf("alloc bit of (%d,%d) is %v, head allocated %v", p, v, got, want)
			}
			if got, want := r.ready[p]>>v&1 != 0, h != nil && h.Sent < h.Arrived; got != want {
				return fmt.Errorf("ready bit of (%d,%d) is %v, head %+v", p, v, got, h)
			}
			if r.blocked[p]>>v&1 == 0 {
				continue
			}
			if h == nil || h.Allocated || h.Pkt.Dst == r.ID {
				return fmt.Errorf("(%d,%d) is blocked, head %+v", p, v, h)
			}
			var err error
			r.ForEachCandidate(h.Pkt, func(port topology.Direction, gvc int) {
				if r.vcFree[port]>>gvc&1 != 0 && r.gained>>(4*(port-1))&15 == 0 {
					err = fmt.Errorf("(%d,%d) is blocked, but VC %d of port %d is free for %s", p, v, gvc, port, h.Pkt)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// pktView is what a router writes into a resident packet; the entries
// themselves are compared through the SnapshotState bytes.
type pktView struct {
	id         uint64
	hops       int
	injectTime int64
}

func (s *side) packets() (out []pktView) {
	for p := topology.Direction(0); int(p) < nPorts; p++ {
		for v := range routerInputs(s.rt)[p].VCs {
			q := s.rt.VCFor(p, v)
			for i := 0; i < q.Len(); i++ {
				pkt := q.EntryAt(i).Pkt
				out = append(out, pktView{pkt.ID, pkt.Hops, pkt.InjectTime})
			}
		}
	}
	return out
}

// describe renders a side for a failure message.
func (s *side) describe() string {
	var b bytes.Buffer
	for p := topology.Direction(0); int(p) < nPorts; p++ {
		for v := range routerInputs(s.rt)[p].VCs {
			q := s.rt.VCFor(p, v)
			for i := 0; i < q.Len(); i++ {
				e := *q.EntryAt(i)
				pkt := e.Pkt
				e.Pkt = nil
				fmt.Fprintf(&b, "%d/%d[%d] pkt %d hops %d inj %d %+v\n", p, v, i, pkt.ID, pkt.Hops, pkt.InjectTime, e)
			}
		}
	}
	fmt.Fprintf(&b, "%v\n", s.env.log)
	return b.String()
}

func routerInputs(rt lockstepRouter) *[nPorts]InputUnit {
	if r, ok := rt.(*Router); ok {
		return &r.Inputs
	}
	return &rt.(*refRouter).Inputs
}

func snapshotBytes(rt lockstepRouter) []byte {
	w := snapshot.NewWriter()
	rt.SnapshotState(w)
	return w.Bytes()
}

// lockstepShapes are the three router shapes the schemes build: FastPass
// (1 VN × 4 adaptive VCs), EscapeVC (6 VNs, a West-first escape VC under
// adaptive ones — two algorithm groups) and the 6 VN × 2 VC baselines.
func lockstepShapes() map[string]Config {
	escape := adaptiveCfg(int(message.NumClasses), 3)
	escape.VCAlgorithms = []routing.Algorithm{routing.WestFirst, routing.FullyAdaptive, routing.FullyAdaptive}
	return map[string]Config{
		"fastpass-1x4": adaptiveCfg(1, 4),
		"escapevc-6x3": escape,
		"baseline-6x2": adaptiveCfg(int(message.NumClasses), 2),
	}
}

// TestRouterMatchesReference steps the mask router and the old one side
// by side under a seeded hostile Env and controller-style meddling, and
// after every cycle requires every entry, credit, arbiter cursor and
// counter (the SnapshotState bytes carry all of them), every packet field
// the router writes and the ordered Env call log to be equal, and the
// mask router's alloc and blocked masks to pass checkMasks. Now and then
// the mask router is replaced by one restored from its own snapshot,
// whose cached routes and blocked heads are gone and must come back the
// same. The reference asks its Env about claims and stalls; the mask
// router is pushed the same answers before every step.
func TestRouterMatchesReference(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	for name, cfg := range lockstepShapes() {
		parked := 0
		for _, id := range []int{mesh.ID(1, 2), mesh.ID(0, 0), mesh.ID(3, 1)} {
			for seed := int64(1); seed <= 3; seed++ {
				mk := func() *side {
					return &side{env: &scriptEnv{seed: uint64(seed)}, rng: rand.New(rand.NewSource(seed)), id: id, mesh: mesh, cfg: cfg}
				}
				ref, cur := mk(), mk()
				ref.rt = newRefRouter(id, mesh, cfg, ref.env)
				cur.rt = New(id, mesh, cfg, cur.env)
				ties, lastTie, blocked := 0, uint8(0), 0
				for cycle := int64(0); cycle < 1500; cycle++ {
					for _, s := range []*side{ref, cur} {
						s.env.cycle, s.env.log = cycle, s.env.log[:0]
						s.meddle()
						if r, ok := s.rt.(*Router); ok {
							s.env.push(r)
							if r.resident > 0 && r.gained == 0 && r.unsettled()|r.movable() == 0 {
								parked++
							}
						}
						s.rt.Step()
					}
					if !bytes.Equal(snapshotBytes(cur.rt), snapshotBytes(ref.rt)) || !slices.Equal(cur.packets(), ref.packets()) || !slices.Equal(cur.env.log, ref.env.log) {
						t.Fatalf("%s node %d seed %d cycle %d:\nmask router:\n%s\nreference:\n%s", name, id, seed, cycle, cur.describe(), ref.describe())
					}
					r := cur.rt.(*Router)
					if err := checkMasks(r, cur.env); err != nil {
						t.Fatalf("%s node %d seed %d cycle %d: %v", name, id, seed, cycle, err)
					}
					for _, m := range r.blocked {
						blocked += bits.OnesCount64(m)
					}
					if next := ref.rt.(*refRouter).portTie.next; next != lastTie {
						ties, lastTie = ties+1, next
					}
					if cycle%97 == 96 {
						w := snapshot.NewWriter()
						cur.rt.SnapshotState(w)
						_, rd, err := snapshot.Open(snapshot.Seal(nil, w))
						if err != nil {
							t.Fatal(err)
						}
						fresh := New(id, mesh, cfg, cur.env)
						fresh.RestoreState(rd)
						if rd.Err() != nil {
							t.Fatal(rd.Err())
						}
						cur.rt = fresh
					}
				}
				// The run must have exercised what it compares.
				if r := cur.rt.(*Router); r.FlitsRouted < 1500 || r.SwitchStalls < 50 || ties < 20 || blocked < 500 {
					t.Errorf("%s node %d seed %d: a dull run — %d flits, %d switch stalls, %d port ties, %d blocked head-cycles",
						name, id, seed, r.FlitsRouted, r.SwitchStalls, ties, blocked)
				}
			}
		}
		if parked < 50 {
			t.Errorf("%s: the routers parked (nothing to allocate or send, no credit gained) in only %d steps", name, parked)
		}
	}
}

// TestGrantMaskMatchesGrant: the mask arbiter picks Grant's winner and
// leaves Grant's cursor, for every cursor and request set up to n = 8 and
// for random ones up to n = 64.
func TestGrantMaskMatchesGrant(t *testing.T) {
	check := func(n, next int, reqs uint64) bool {
		a := RRArbiter{n: uint8(n), next: uint8(next)}
		b := a
		g := a.Grant(func(i int) bool { return reqs>>i&1 != 0 })
		return b.GrantMask(reqs) == g && a.next == b.next
	}
	for n := 1; n <= 8; n++ {
		for next := 0; next < n; next++ {
			for reqs := uint64(0); reqs < 1<<n; reqs++ {
				if !check(n, next, reqs) {
					t.Fatalf("n=%d next=%d reqs=%b: GrantMask differs from Grant", n, next, reqs)
				}
			}
		}
	}
	err := quick.Check(func(n, next uint8, reqs uint64) bool {
		size := int(n)%64 + 1
		return check(size, int(next)%size, reqs&(1<<size-1))
	}, &quick.Config{MaxCount: 20000})
	if err != nil {
		t.Error(err)
	}
}

// TestOccupancyTracksEveryMutation: whatever sequence of the VC and
// router API runs, a port's occupancy bit is set exactly for its
// non-empty VCs, resident counts every packet, and a cached route names
// exactly the (port, VC) pairs a fresh ForEachCandidate visits.
func TestOccupancyTracksEveryMutation(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	for name, cfg := range lockstepShapes() {
		id := mesh.ID(2, 1)
		s := &side{env: &scriptEnv{seed: 7}, rng: rand.New(rand.NewSource(7)), id: id, mesh: mesh, cfg: cfg}
		r := New(id, mesh, cfg, s.env)
		s.rt = r
		for cycle := int64(0); cycle < 3000; cycle++ {
			s.env.cycle, s.env.log = cycle, s.env.log[:0]
			s.meddle()
			s.env.push(r)
			if cycle%3 != 0 {
				r.Step()
			}
			if err := checkMasks(r, s.env); err != nil {
				t.Fatalf("%s cycle %d: %v", name, cycle, err)
			}
			resident := 0
			for p := range r.Inputs {
				for v := range r.Inputs[p].VCs {
					q := &r.Inputs[p].VCs[v]
					resident += q.Len()
					if occ := r.occ[p]>>v&1 != 0; occ == q.Empty() {
						t.Fatalf("%s cycle %d: occ bit of (%d,%d) is %v, VC holds %d packets", name, cycle, p, v, occ, q.Len())
					}
					if q.Empty() && q.route != 0 {
						t.Fatalf("%s cycle %d: empty VC (%d,%d) still caches route %04x", name, cycle, p, v, q.route)
					}
					if q.route == 0 {
						continue
					}
					pkt, t4 := q.Head().Pkt, r.tab
					var want, got [nPorts]uint64
					r.ForEachCandidate(pkt, func(port topology.Direction, gvc int) { want[port] |= 1 << gvc })
					for p := 1; p < nPorts; p++ {
						got[p] = t4.vcs[q.route>>(4*(p-1))&15] << t4.classShift[pkt.Class]
					}
					if got != want {
						t.Fatalf("%s cycle %d: (%d,%d) caches route %04x = VCs %x for %s, fresh routing gives %x", name, cycle, p, v, q.route, got, pkt, want)
					}
				}
				if bits.OnesCount64(r.occ[p]) > len(r.Inputs[p].VCs) {
					t.Fatalf("%s cycle %d: occ[%d] = %x has bits past the port's VCs", name, cycle, p, r.occ[p])
				}
			}
			if resident != r.Resident() {
				t.Fatalf("%s cycle %d: resident = %d, VCs hold %d", name, cycle, r.Resident(), resident)
			}
		}
	}
}
