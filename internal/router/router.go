package router

import (
	"fmt"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Env is the router's window onto the rest of the network. The network
// package implements it; tests provide lightweight fakes.
type Env interface {
	// Cycle is the current simulation cycle.
	Cycle() int64
	// LinkClaimed reports whether a bypass controller (FastPass lane or
	// returning path) owns the directed link this cycle; switch
	// allocation must not drive a regular flit onto a claimed link.
	// This models the lookahead signal: in hardware the claim arrives
	// one cycle early and pre-sets the muxes (§III-C5).
	LinkClaimed(linkID int) bool
	// EjectClaimed reports whether a FastPass packet owns the node's
	// ejection port this cycle (Qn 3: FastPass preempts ongoing
	// ejections).
	EjectClaimed(node int) bool
	// SendFlit drives a flit onto a directed link, tagged with the
	// downstream VC it was allocated.
	SendFlit(linkID int, f message.Flit, outVC int)
	// SendVCFree signals up the given in-bound link that input VC vc of
	// this router is free again (its tail departed or its packet was
	// promoted/removed).
	SendVCFree(linkID int, vc int)
	// CanEject reports whether the node's NIC can accept a packet of
	// pkt's class, honouring FastPass reservations.
	CanEject(node int, pkt *message.Packet) bool
	// BeginEject reserves NIC space for a packet about to stream out of
	// the Local port; CancelEject releases it (forced removal of an
	// ejection-allocated packet).
	BeginEject(node int, pkt *message.Packet)
	CancelEject(node int, pkt *message.Packet)
	// EjectFlit delivers one flit of an ejecting packet to the NIC.
	EjectFlit(node int, f message.Flit)
	// WakeRouter tells the active-set scheduler that the node's router
	// gained a resident packet and must be stepped again. Routers call
	// it on every insertion; the scheduler deduplicates.
	WakeRouter(node int)
	// InputStalled reports whether fault injection has frozen the given
	// input port of the node's router this cycle: its buffered flits
	// must not advance through the switch. Healthy environments return
	// false unconditionally.
	InputStalled(node int, port int) bool
}

// Config carries the per-scheme router parameters (Table II).
type Config struct {
	// NumVNs is the number of virtual networks (6 for VN-based
	// baselines, 1 for FastPass and Pitstop which need none — their
	// single "VN" is just the shared buffer pool).
	NumVNs int
	// VCsPerVN is the number of virtual channels per VN per input port.
	VCsPerVN int
	// BufFlits is the depth of each network VC in flits (5 in the
	// paper; also the maximum packet length).
	BufFlits int
	// InjQueueFlits is the capacity of each per-class injection queue.
	InjQueueFlits int
	// VCAlgorithms assigns a routing algorithm to each VC index within
	// a VN; index 0 may be an escape channel (EscapeVC) while higher
	// indices are adaptive.
	VCAlgorithms []routing.Algorithm
	// ClassVN maps a message class to its VN.
	ClassVN func(message.Class) int
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.NumVNs < 1 || c.VCsPerVN < 1 {
		return fmt.Errorf("router: need at least 1 VN and 1 VC, have %d/%d", c.NumVNs, c.VCsPerVN)
	}
	if len(c.VCAlgorithms) != c.VCsPerVN {
		return fmt.Errorf("router: %d VC algorithms for %d VCs", len(c.VCAlgorithms), c.VCsPerVN)
	}
	if c.BufFlits < 1 || c.InjQueueFlits < 1 {
		return fmt.Errorf("router: non-positive buffer capacity")
	}
	if c.ClassVN == nil {
		return fmt.Errorf("router: ClassVN is required")
	}
	for cl := message.Class(0); cl < message.NumClasses; cl++ {
		if vn := c.ClassVN(cl); vn < 0 || vn >= c.NumVNs {
			return fmt.Errorf("router: class %v maps to VN %d outside [0,%d)", cl, vn, c.NumVNs)
		}
	}
	return nil
}

// NetVCs is the number of virtual channels per network input port.
func (c Config) NetVCs() int { return c.NumVNs * c.VCsPerVN }

// InputUnit is the buffering for one input port. VCs is a window onto
// the owning router's single VC array.
type InputUnit struct {
	Port topology.Direction
	VCs  []VC
}

// nPorts is the port count of every router this package builds: the
// routers take a *topology.Mesh, so their per-port state is fixed-size
// and lives inside the Router struct instead of behind slice headers.
const nPorts = int(topology.NumMeshPorts)

// Router is one node's switch. Port 0 (Local) doubles as the injection
// input (per-class queues, the paper's "Injection Buffer") and the
// ejection output.
//
// A Router is built once and never grows (DESIGN.md §9): per-port state
// is arrays in the struct, and the parts sized by the VC count — the VCs
// themselves, their entry slots and windows, credit and request vectors,
// VA candidate lists — are windows onto a few backing arrays that a
// whole network's routers share (see NewAll).
type Router struct {
	ID   int
	Mesh *topology.Mesh
	Cfg  Config
	Env  Env

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
	// telemetry counters: written only by this router's Step (one shard),
	// read only by serial window-close code, and part of the checkpoint.
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

// slab is the backing store routers are carved from: one array per
// element type, sized for every router of a build, so constructing N
// routers costs a handful of allocations instead of ~90 each.
type slab struct {
	routers []Router
	vcs     []VC
	entries []Entry
	bools   []bool
	ints    []int
	slots   []vaSlot
}

// injWindow is the Build-carved depth of each injection queue, in
// packets: enough for the usual backlog of a 10-flit queue, a power of
// two as ringq.Adopt requires. A deeper queue grows onto the heap.
const injWindow = 4

// carve cuts the next n elements off a slab array. The cap is clipped so
// an append through one window can never bleed into its neighbour.
func carve[T any](pool *[]T, n int) []T {
	s := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return s
}

func newSlab(cfg Config, routers int) *slab {
	if err := cfg.Validate(); err != nil {
		//nocvet:ignore panicstyle Validate builds its errors with the "router: " prefix
		panic(err)
	}
	netVCs := (nPorts - 1) * cfg.NetVCs()
	allVCs := int(message.NumClasses) + netVCs
	sl := &slab{
		routers: make([]Router, routers),
		vcs:     make([]VC, routers*allVCs),
		entries: make([]Entry, routers*(netVCs+injWindow*int(message.NumClasses))),
		bools:   make([]bool, routers*(netVCs+allVCs)), // vcFree + saReqs
		ints:    make([]int, routers*netVCs),           // candVCs
		slots:   make([]vaSlot, 0, allVCs),
	}
	for c := 0; c < int(message.NumClasses); c++ {
		sl.slots = append(sl.slots, vaSlot{topology.Local, c})
	}
	for p := 1; p < nPorts; p++ {
		for v := 0; v < cfg.NetVCs(); v++ {
			sl.slots = append(sl.slots, vaSlot{topology.Direction(p), v})
		}
	}
	return sl
}

// New wires a stand-alone router for node id. Link IDs come from the
// mesh topology.
func New(id int, mesh *topology.Mesh, cfg Config, env Env) *Router {
	return newSlab(cfg, 1).build(id, mesh, cfg, env)
}

// NewAll wires one router per mesh node, all carved from shared backing
// arrays — contiguous VC state for the cycle loop, and a constant number
// of allocations however large the mesh.
func NewAll(mesh *topology.Mesh, cfg Config, env Env) []*Router {
	sl := newSlab(cfg, mesh.NumNodes())
	rs := make([]*Router, mesh.NumNodes())
	for id := range rs {
		rs[id] = sl.build(id, mesh, cfg, env)
	}
	return rs
}

// build carves and wires the slab's next router.
func (sl *slab) build(id int, mesh *topology.Mesh, cfg Config, env Env) *Router {
	r := &carve(&sl.routers, 1)[0]
	r.ID, r.Mesh, r.Cfg, r.Env = id, mesh, cfg, env
	r.slots = sl.slots
	r.candPorts = r.dirBuf[0:0:nPorts]
	r.bestPorts = r.dirBuf[nPorts : nPorts : 2*nPorts]
	r.routeBuf = r.dirBuf[2*nPorts : 2*nPorts]
	r.portTie.n = nPorts
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
		iu.Port = d
		if p == int(topology.Local) {
			// Injection: one queue per message class.
			iu.VCs = carve(&sl.vcs, int(message.NumClasses))
			for c := range iu.VCs {
				iu.VCs[c].init(cfg.InjQueueFlits, cfg.InjQueueFlits)
				iu.VCs[c].entries.Adopt(carve(&sl.entries, injWindow))
			}
		} else {
			// Network VCs hold one packet: its entry slot is carved here.
			iu.VCs = carve(&sl.vcs, cfg.NetVCs())
			for v := range iu.VCs {
				iu.VCs[v].init(cfg.BufFlits, 1)
				iu.VCs[v].entries.Adopt(carve(&sl.entries, 1))
			}
			r.vcFree[p] = carve(&sl.bools, cfg.NetVCs())
			for v := range r.vcFree[p] {
				r.vcFree[p][v] = true
			}
			r.candVCs[p] = carve(&sl.ints, cfg.NetVCs())[:0]
		}
		for v := range iu.VCs {
			iu.VCs[v].Resident = &r.resident
		}
		r.saReqs[p] = carve(&sl.bools, len(iu.VCs))
		r.saInArb[p].n = len(iu.VCs)
		r.saOutArb[p].n = nPorts
	}
	return r
}

// OutLinkID returns the directed link leaving through port, or -1.
func (r *Router) OutLinkID(port topology.Direction) int { return r.outLinks[port] }

// InLinkID returns the directed link arriving on port, or -1.
func (r *Router) InLinkID(port topology.Direction) int { return r.inLinks[port] }

// VCFor returns the buffer at (port, vc).
func (r *Router) VCFor(port topology.Direction, vc int) *VC { return &r.Inputs[port].VCs[vc] }

// DownstreamVCFree reports the credit state for (outPort, outVC).
func (r *Router) DownstreamVCFree(port topology.Direction, vc int) bool {
	return r.vcFree[port][vc]
}

// MarkVCFree records an arriving credit: the downstream VC behind
// outPort is free again.
func (r *Router) MarkVCFree(port topology.Direction, vc int) { r.vcFree[port][vc] = true }

// Occupied reports whether any packet is buffered in this router. An
// unoccupied router's Step cannot change any state (see DESIGN.md §9),
// so the network skips it.
func (r *Router) Occupied() bool { return r.resident > 0 }

// Resident reports the packets currently buffered across all VCs
// (telemetry's in-network population gauge).
func (r *Router) Resident() int { return r.resident }

// VCOccupancy reports the packets buffered in network VC gvc across all
// network input ports (injection queues excluded). Telemetry samples it
// per window to expose lane-utilisation skew — e.g. traffic piling onto
// the escape VC.
func (r *Router) VCOccupancy(gvc int) int {
	c := 0
	for p := 1; p < len(r.Inputs); p++ {
		vcs := r.Inputs[p].VCs
		if gvc < len(vcs) {
			c += vcs[gvc].Len()
		}
	}
	return c
}

// wake notifies the scheduler that this router holds work.
func (r *Router) wake() { r.Env.WakeRouter(r.ID) }

// DeliverHead accepts a head flit arriving on a network input port.
func (r *Router) DeliverHead(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].AcceptHead(pkt, r.Env.Cycle())
	r.wake()
}

// DeliverBody accepts a body/tail flit arriving on a network input port.
func (r *Router) DeliverBody(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].AcceptBody(pkt, r.Env.Cycle())
}

// InjectPacket enqueues a freshly created packet into the node's
// injection queue for its class. It reports false when the queue lacks
// space (the NIC then retries next cycle). It runs inside NIC.Tick via
// the NIC.Inject func value, which the call graph cannot resolve, so it
// carries its own phase root.
//
//nocvet:phase route
func (r *Router) InjectPacket(pkt *message.Packet) bool {
	q := &r.Inputs[topology.Local].VCs[pkt.Class]
	if !q.CanAccept(pkt.Len) {
		return false
	}
	q.EnqueueWhole(pkt, r.Env.Cycle())
	r.wake()
	return true
}

// InjectionFree reports the free flit capacity of the class's injection
// queue.
func (r *Router) InjectionFree(c message.Class) int {
	return r.Inputs[topology.Local].VCs[c].FreeFlits()
}

// vnOf returns the VN of a packet under this router's config.
func (r *Router) vnOf(pkt *message.Packet) int { return r.Cfg.ClassVN(pkt.Class) }

// allowedPorts fills the router's VA scratch with, for a head packet,
// the candidate output ports and for each the usable VC indices
// (global), honouring per-VC routing algorithms. Local (ejection) is
// handled separately. The returned slices alias router scratch and are
// valid until the next call.
func (r *Router) allowedPorts(pkt *message.Packet) []topology.Direction {
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
func (r *Router) Step() {
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
//
//nocvet:phase route
func (r *Router) allocateVCs() {
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
func (r *Router) tryAllocate(e *Entry) {
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
//
//nocvet:phase alloc
func (r *Router) switchAllocate() {
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
func (r *Router) sendable(v *VC) bool {
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
//
//nocvet:phase traverse
func (r *Router) transmit(in topology.Direction, vc int) {
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

// --- Controller-facing buffer manipulation (forced moves, upgrades) ---

// RemoveHeadPacket atomically extracts the fully-buffered head packet of
// (port, vc), releasing any downstream VC it had claimed and crediting
// the upstream router. Used by FastPass upgrades and the forced-move
// primitives of SPIN/SWAP/DRAIN. Returns nil when the head is missing,
// streaming, or partially sent.
func (r *Router) RemoveHeadPacket(port topology.Direction, vc int) *message.Packet {
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
func (r *Router) RemoveHeadPacketNoCredit(port topology.Direction, vc int) *message.Packet {
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

// CreditUpstream releases the upstream claim on (port, vc) explicitly —
// the counterpart of RemoveHeadPacketNoCredit for slots a forced move
// ended up not refilling.
func (r *Router) CreditUpstream(port topology.Direction, vc int) {
	if port != topology.Local && r.inLinks[port] >= 0 {
		r.Env.SendVCFree(r.inLinks[port], vc)
	}
}

// ClaimDownstreamVC marks (outPort, outVC) busy in this router's credit
// state. A controller that force-inserts a packet into the downstream
// router's input VC must claim it here (this router is that VC's only
// feeder); the claim clears through the normal credit return when the
// packet eventually leaves.
func (r *Router) ClaimDownstreamVC(port topology.Direction, vc int) {
	r.vcFree[port][vc] = false
}

// InsertPacket places a whole packet into (port, vc) if space allows.
// Controllers use it for forced moves; the VC's normal capacity rules
// apply.
func (r *Router) InsertPacket(port topology.Direction, vc int, pkt *message.Packet) bool {
	buf := &r.Inputs[port].VCs[vc]
	if !buf.CanAccept(pkt.Len) {
		return false
	}
	buf.EnqueueWhole(pkt, r.Env.Cycle())
	r.wake()
	return true
}

// InsertOverflow places a packet into (port, vc) beyond capacity —
// only FastPass's rejected-packet return path may do this (see
// VC.EnqueueOverflow).
func (r *Router) InsertOverflow(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].EnqueueOverflow(pkt, r.Env.Cycle())
	r.wake()
}

// InsertFrontOverflow places a packet at the front of (port, vc) beyond
// capacity — FastPass's rejected-packet parking (see
// VC.EnqueueFrontOverflow).
func (r *Router) InsertFrontOverflow(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].EnqueueFrontOverflow(pkt, r.Env.Cycle())
	r.wake()
}

// BlockedFor reports how long the head of (port, vc) has been resident
// without any flit movement, or -1 when the VC is empty. SPIN's
// detection threshold and SWAP's duty cycle consume this.
func (r *Router) BlockedFor(port topology.Direction, vc int) int64 {
	e := r.Inputs[port].VCs[vc].Head()
	if e == nil {
		return -1
	}
	return r.Env.Cycle() - e.LastMove
}

// ForEachCandidate visits every (output port, downstream VC) pair the
// routing relation allows for a head packet buffered at this router —
// the resources the packet could be waiting for. The deadlock watchdog
// uses it to extract waits-for edges from a wedged network. Pairs are
// visited in deterministic (VC algorithm, port) order; the call reuses
// the router's VA scratch, so it must not run concurrently with Step.
func (r *Router) ForEachCandidate(pkt *message.Packet, visit func(port topology.Direction, gvc int)) {
	for _, p := range r.allowedPorts(pkt) {
		for _, gvc := range r.candVCs[p] {
			visit(p, gvc)
		}
	}
}

// ResidentPackets returns every packet buffered in this router,
// front-to-back per VC (diagnostics and conservation checks).
func (r *Router) ResidentPackets() []*message.Packet {
	var pkts []*message.Packet
	for p := range r.Inputs {
		vcs := r.Inputs[p].VCs
		for v := range vcs {
			for i := 0; i < vcs[v].Len(); i++ {
				pkts = append(pkts, vcs[v].EntryAt(i).Pkt)
			}
		}
	}
	return pkts
}
