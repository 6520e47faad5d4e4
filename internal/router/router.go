package router

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"

	"repro/internal/message"
	"repro/internal/ringq"
	"repro/internal/routing"
	"repro/internal/spare"
	"repro/internal/topology"
)

// Env is the router's window onto the rest of the network. The network
// package implements it; tests provide lightweight fakes. Claims and
// stalls are pushed instead (Router.Claimed, Router.Stalled).
type Env interface {
	// Cycle is the current simulation cycle.
	Cycle() int64
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

// TableII is the router every evaluated scheme builds (Table II): vcs
// VCs of 5 flits per input port and virtual network, 10-flit injection
// queues, VC 0 routed with escape and the others with alg. With vns
// every message class has its own virtual network; without, one pool
// serves them all.
func TableII(vcs int, vns bool, escape, alg routing.Algorithm) Config {
	algs := make([]routing.Algorithm, vcs)
	for i := range algs {
		algs[i] = alg
	}
	if vcs > 0 {
		algs[0] = escape
	}
	c := Config{NumVNs: 1, VCsPerVN: vcs, BufFlits: 5, InjQueueFlits: 10, VCAlgorithms: algs,
		ClassVN: func(message.Class) int { return 0 }}
	if vns {
		c.NumVNs, c.ClassVN = int(message.NumClasses), func(c message.Class) int { return int(c) }
	}
	return c
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.NumVNs < 1 || c.VCsPerVN < 1 {
		return fmt.Errorf("router: need at least 1 VN and 1 VC, have %d/%d", c.NumVNs, c.VCsPerVN)
	}
	if c.NetVCs() > 64 {
		return fmt.Errorf("router: %d VNs x %d VCs = %d VCs per port, limit 64 (one mask word per port)", c.NumVNs, c.VCsPerVN, c.NetVCs())
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
	VCs []VC
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
// is arrays in the struct — occupancy and credits one mask word per port,
// bit v = VC v — and the VCs are a window onto a backing array that a
// whole network's routers share (see NewAll); a network VC is its inline
// entry, and an injection queue's ring is in the fifo its first packet
// takes (see slab.ring). What a Step reads leads the struct.
type Router struct {
	// occ[port] has bit v set while input VC v holds a packet; the VCs
	// keep it (and resident) current on every insert and remove, so
	// controllers that edit VCs directly need do nothing. Allocation
	// walks set bits only.
	occ [nPorts]uint64
	// alloc[port] has bit v set while VC v's head holds an output VC,
	// blocked[port] while it failed VA for want of a free downstream VC
	// on all its route ports — an outcome only a credit on one of them
	// (gained) can change. The VCs re-derive both when the head changes.
	alloc, blocked [nPorts]uint64
	// ready[port] has bit v set while VC v's head holds an arrived flit it
	// has not sent; the VCs keep it where Arrived and Sent move.
	ready [nPorts]uint64
	// vcFree tracks downstream VC availability per output port; it is
	// the credit state of virtual cut-through with one packet per VC: a
	// downstream VC is either wholly free or owned by one packet.
	vcFree [nPorts]uint64

	saInArb  [nPorts]RRArbiter // stage 1: per input port over VCs
	saOutArb [nPorts]RRArbiter // stage 2: per output port over input ports
	portTie  RRArbiter         // adaptive output-port tie-break

	// gained: ports whose vcFree gained a bit since the last VA pass, as
	// VC.route fields. (Ejection never blocks: NIC space frees silently.)
	gained uint16
	// ejecting has bit c set while a regular packet of class c is
	// mid-ejection.
	ejecting uint8
	// Claimed has bit p set while output port p is barred to regular
	// flits (a bypass owns its link or the ejection port, or the link is
	// down), Stalled while input port p is frozen. They are the lookahead
	// signals that preset the muxes a cycle early (§III-C5): the network
	// sets them before any router steps and clears them the next cycle.
	Claimed, Stalled uint8

	// resident counts packets buffered across all VCs, so Occupied is
	// O(1). An empty router's Step is a provable no-op, which is what
	// lets the network's active-set scheduler skip it.
	resident int

	// outLinks[port] / inLinks[port] are directed link IDs, -1 where
	// the mesh edge has no neighbour.
	outLinks, inLinks [nPorts]int32

	ID  int
	Env Env
	tab *slab

	Inputs [nPorts]InputUnit

	// FlitsRouted counts flits moved through the crossbar over the
	// router's lifetime; SwitchStalls counts (cycle, input port) pairs
	// where a nominated flit lost switch allocation. Both are cumulative
	// telemetry counters: written only by this router's Step, read only
	// by window-close code, and part of the checkpoint.
	FlitsRouted  int64
	SwitchStalls int64

	Mesh *topology.Mesh
	// routeBuf receives a routing function's ports — up to four, a graph
	// node's degree (a mesh route has at most two): the functions are
	// called through a Func value, which would force a stack buffer onto
	// the heap.
	routeBuf [4]topology.Direction
	// Cfg is shared by the routers of one build.
	Cfg *Config
}

// routeTable is what the routers of one build share, read-only once
// built: the VC indices of a VN grouped by routing algorithm (first
// appearance first — at most four groups, there being four algorithms),
// so a head's legal output ports are computed once per group and not per
// VC; route[g] is group g's routing function, resolved for the topology;
// vcs[s] is the union of the groups in set s, VC-index bits within a
// VN, and classShift each class's VN as a shift into the port's VC mask.
type routeTable struct {
	groups     int
	route      [4]routing.Func
	vcs        [16]uint64
	classShift [message.NumClasses]uint8
	vaSlots    int64 // (port, vc) pairs VA rotates over
}

// newRouteTable resolves each algorithm's Func once for mesh. A graph
// has no coordinates: it routes FullyAdaptive by its hop table
// (routing.RouteGraph) and refuses every other algorithm.
func newRouteTable(cfg Config, mesh *topology.Mesh) routeTable {
	t := routeTable{vaSlots: int64(int(message.NumClasses) + (nPorts-1)*cfg.NetVCs())}
	for c := range t.classShift {
		t.classShift[c] = uint8(cfg.ClassVN(message.Class(c)) * cfg.VCsPerVN)
	}
	var algs [4]routing.Algorithm
	for i, alg := range cfg.VCAlgorithms {
		g := slices.Index(algs[:t.groups], alg)
		if g < 0 {
			g, t.groups = t.groups, t.groups+1
			algs[g], t.route[g] = alg, routing.ForAlgorithm(alg)
			if mesh.IsGraph() {
				if alg != routing.FullyAdaptive {
					panic(fmt.Sprintf("router: %v routing needs a 2-D mesh, not a graph", alg))
				}
				t.route[g] = routing.RouteGraph
			}
		}
		for s := range t.vcs {
			if s>>g&1 != 0 {
				t.vcs[s] |= 1 << i
			}
		}
	}
	return t
}

// slab is the backing store routers are carved from: one array per
// element type, sized for every router of a build, so constructing N
// routers costs a handful of allocations instead of ~90 each. A router's
// tab is its slab, which is how Release finds the arrays.
type slab struct {
	routeTable
	arrays slabArrays // whole, as made or drawn: what Release hands on
	rest   slabArrays // the uncarved tails
	cfg    Config
	// overflow lists the chunks that injection queues take doubled
	// windows from (see window), each as its uncarved prefix.
	overflow [][]Entry
	fifos    [message.NumClasses][]fifo // per class, one a router (see ring)
}

// fifo is an injection queue's ring with its first window.
type fifo struct {
	ringq.Ring[Entry]
	first [injWindow]Entry
}

// slabArrays are a slab's backing arrays.
type slabArrays struct {
	routers []Router
	vcs     []VC
}

// The stores NewAll draws its arrays from and Release returns them to.
var (
	spareRouters spare.Store[Router]
	spareVCs     spare.Store[VC]
	spareIndex   spare.Store[*Router]
	// spareOverflow and spareChunkLists hold overflow chunks and the
	// lists of them (see window), spareFIFOs fifo chunks (see ring).
	spareOverflow   spare.Store[Entry]
	spareChunkLists spare.Store[[]Entry]
	spareFIFOs      spare.Store[fifo]
)

// injWindow is the depth of the window an injection queue takes with
// its ring, in packets: enough for the usual backlog of a 10-flit queue,
// a power of two as ringq.Adopt requires. A deeper queue takes a doubled
// window.
const injWindow = 4

// overflowChunk is the length of a build's first overflow chunk, in
// entries: 32 of the 8-entry windows a queue first grows into.
const overflowChunk = 256

// window cuts an n-entry window, for an injection queue that outgrew its
// window, off the top of the last overflow chunk. The first such window
// draws the first chunk; a chunk too short for n is left to the windows
// already cut from it and the next drawn twice as long. Each is used to
// its whole capacity, and Release hands them all on, so a later build
// whose queues back up as far draws the same chunks again.
func (sl *slab) window(n int) []Entry {
	k := len(sl.overflow) - 1
	if k < 0 || len(sl.overflow[k]) < n {
		size := overflowChunk
		if k < 0 {
			sl.overflow = spareChunkLists.Take(8)[:0]
		} else {
			size = 2 * cap(sl.overflow[k])
		}
		c := spareOverflow.Take(max(size, n))
		sl.overflow, k = append(sl.overflow, c[:cap(c)]), k+1
	}
	c := sl.overflow[k]
	m := len(c) - n
	sl.overflow[k] = c[:m]
	return c[m : m+n : m+n]
}

// ring hands router r's class-c injection queue, at its first packet,
// its ring on its first window: the router's fifo in the class's chunk,
// which the class's first packet draws (a class no run uses costs none).
func (sl *slab) ring(r *Router, c uint8) *ringq.Ring[Entry] {
	if sl.fifos[c] == nil {
		sl.fifos[c] = spareFIFOs.Take(len(sl.arrays.routers))
	}
	f := &sl.fifos[c][r.ID%len(sl.fifos[c])]
	f.Adopt(f.first[:])
	return &f.Ring
}

// carve cuts the next n elements off a slab array. The cap is clipped so
// an append through one window can never bleed into its neighbour.
func carve[T any](pool *[]T, n int) []T {
	s := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return s
}

// newSlab sizes a slab for a build of n routers on mesh, from the stores
// if spare is set (a smaller build carves a prefix of a larger one's).
func newSlab(cfg Config, mesh *topology.Mesh, n int, spare bool) *slab {
	if err := cfg.Validate(); err != nil {
		//nocvet:ignore panicstyle Validate builds its errors with the "router: " prefix
		panic(err)
	}
	vcs := n * (int(message.NumClasses) + (nPorts-1)*cfg.NetVCs())
	if !spare {
		a := slabArrays{make([]Router, n), make([]VC, vcs)}
		return &slab{routeTable: newRouteTable(cfg, mesh), arrays: a, rest: a, cfg: cfg}
	}
	a := slabArrays{spareRouters.Take(n), spareVCs.Take(vcs)}
	return &slab{routeTable: newRouteTable(cfg, mesh), arrays: a, rest: a, cfg: cfg}
}

// New wires a stand-alone router for node id. Link IDs come from the
// mesh topology.
func New(id int, mesh *topology.Mesh, cfg Config, env Env) *Router {
	return newSlab(cfg, mesh, 1, false).build(id, mesh, cfg, env)
}

// NewAll wires one router per mesh node, all carved from shared backing
// arrays — contiguous VC state for the cycle loop, and a constant number
// of allocations however large the mesh. The arrays are released ones
// when they fit (see Release).
func NewAll(mesh *topology.Mesh, cfg Config, env Env) []*Router {
	sl := newSlab(cfg, mesh, mesh.NumNodes(), true)
	rs := spareIndex.Take(mesh.NumNodes())
	for id := range rs {
		rs[id] = sl.build(id, mesh, cfg, env)
	}
	return rs
}

// Release hands the arrays of one NewAll's routers, rs among them, and
// their fifo and overflow chunks to a later NewAll in the process.
// Nothing of rs — no router, VC, ring or entry window — may be used
// after the call, and a build is released at most once.
func Release(rs []*Router) {
	sl := rs[0].tab
	spareRouters.Put(sl.arrays.routers)
	spareVCs.Put(sl.arrays.vcs)
	for _, c := range sl.overflow {
		spareOverflow.Put(c)
	}
	for _, c := range sl.fifos {
		spareFIFOs.Put(c)
	}
	spareChunkLists.Put(sl.overflow)
	spareIndex.Put(rs)
}

// build carves and wires the slab's next router.
func (sl *slab) build(id int, mesh *topology.Mesh, cfg Config, env Env) *Router {
	r := &carve(&sl.rest.routers, 1)[0]
	r.ID, r.Mesh, r.Cfg, r.Env, r.tab = id, mesh, &sl.cfg, env, sl
	r.portTie.n = uint8(nPorts)
	for p := 0; p < nPorts; p++ {
		d := topology.Direction(p)
		r.outLinks[p], r.inLinks[p] = -1, -1
		if l := mesh.OutLink(id, d); l != nil {
			r.outLinks[p] = int32(l.ID)
		}
		if l := mesh.InLink(id, d); l != nil {
			r.inLinks[p] = int32(l.ID)
		}
		iu := &r.Inputs[p]
		// Injection: one FIFO per message class, ringless until its
		// first packet. Network VCs hold one packet, in their inline entry.
		n, capFlits, maxPkts := int(message.NumClasses), cfg.InjQueueFlits, cfg.InjQueueFlits
		if p != int(topology.Local) {
			n, capFlits, maxPkts = cfg.NetVCs(), cfg.BufFlits, 1
			r.vcFree[p] = 1<<n - 1
		}
		iu.VCs = carve(&sl.rest.vcs, n)
		for v := range iu.VCs {
			vc := &iu.VCs[v]
			vc.init(capFlits, maxPkts)
			vc.owner, vc.port, vc.idx = r, uint8(p), uint8(v)
		}
		r.saInArb[p].n = uint8(n)
		r.saOutArb[p].n = uint8(nPorts)
	}
	return r
}

// OutLinkID returns the directed link leaving through port, or -1.
func (r *Router) OutLinkID(port topology.Direction) int { return int(r.outLinks[port]) }

// InLinkID returns the directed link arriving on port, or -1.
func (r *Router) InLinkID(port topology.Direction) int { return int(r.inLinks[port]) }

// VCFor returns the buffer at (port, vc).
func (r *Router) VCFor(port topology.Direction, vc int) *VC { return &r.Inputs[port].VCs[vc] }

// DownstreamVCFree reports the credit state for (outPort, outVC).
func (r *Router) DownstreamVCFree(port topology.Direction, vc int) bool {
	return r.vcFree[port]>>vc&1 != 0
}

// MarkVCFree records an arriving credit: the downstream VC behind
// outPort is free again.
func (r *Router) MarkVCFree(port topology.Direction, vc int) {
	r.vcFree[port] |= 1 << vc
	r.gained |= 15 << (4 * (port - 1))
}

// OccupiedVCs visits the non-empty (port, vc) buffers of input ports
// from and above, ascending. The occupancy masks are re-read after every
// yield, so a loop body may remove and refill VCs: one emptied ahead of
// the scan is not visited. (The literal must stay within the inliner's
// budget of 80, or every ranging loop body becomes a heap closure.)
func (r *Router) OccupiedVCs(from topology.Direction) iter.Seq2[topology.Direction, int] {
	//nocvet:ignore hotalloc2 iterator literal is ranged immediately by every caller and never escapes; the alloc-guard tests pin 0 allocs/cycle
	return func(yield func(topology.Direction, int) bool) {
		for p := from; int(p) < nPorts; p++ {
			for v := 0; r.occ[p]>>v != 0; v++ {
				v += bits.TrailingZeros64(r.occ[p] >> v)
				if !yield(p, v) {
					return
				}
			}
		}
	}
}

// Occupancy returns the per-input-port occupancy words: bit v of word p
// is set while VC v of port p holds a packet.
func (r *Router) Occupancy() [nPorts]uint64 { return r.occ }

// Occupied reports whether any packet is buffered in this router. An
// unoccupied router's Step cannot change any state (see DESIGN.md §9),
// so the network skips it.
func (r *Router) Occupied() bool { return r.resident > 0 }

// Resident reports the packets currently buffered across all VCs
// (telemetry's in-network population gauge).
func (r *Router) Resident() int { return r.resident }

// VCOccupancy reports the packets buffered in network VC gvc across all
// network input ports (injection queues excluded; a network VC holds at
// most one). Telemetry samples it per window to expose lane-utilisation
// skew — e.g. traffic piling onto the escape VC.
func (r *Router) VCOccupancy(gvc int) int {
	c := 0
	for p := 1; p < nPorts; p++ {
		c += int(r.occ[p] >> gvc & 1)
	}
	return c
}

// Deliver writes a flit arriving on a network input port at cycle into
// VC vc: a head starts its packet and wakes the router.
func (r *Router) Deliver(port topology.Direction, vc int, f message.Flit, cycle int64) {
	if !f.IsHead() {
		r.Inputs[port].VCs[vc].AcceptBody(f.Pkt, cycle)
		return
	}
	r.Inputs[port].VCs[vc].AcceptHead(f.Pkt, cycle)
	r.Env.WakeRouter(r.ID)
}

// DeliverHead accepts a head flit arriving on a network input port now.
func (r *Router) DeliverHead(port topology.Direction, vc int, pkt *message.Packet) {
	r.Deliver(port, vc, message.Flit{Pkt: pkt}, r.Env.Cycle())
}

// InjectPacket enqueues a freshly created packet into the node's
// injection queue for its class. It reports false when the queue lacks
// space (the NIC then retries next cycle). It runs inside
// NIC.TickInject via the NIC.Inject func value, which the call graph
// cannot resolve, so it is a hot root of its own.
//
//nocvet:hot
func (r *Router) InjectPacket(pkt *message.Packet) bool {
	return r.InsertPacket(topology.Local, int(pkt.Class), pkt)
}

// ports returns the output ports that algorithm group g allows a packet
// for dst here, in the algorithm's preference order and less any the mesh
// edge lacks. The result aliases routeBuf: valid until the next call.
func (r *Router) ports(g int, dst int) []topology.Direction {
	ports := r.tab.route[g](r.Mesh, r.routeBuf[:0], r.ID, dst)
	n := 0
	for _, p := range ports {
		if r.outLinks[p] >= 0 {
			ports[n] = p
			n++
		}
	}
	return ports[:n]
}

// Step runs one cycle of the router: VC allocation for fresh heads,
// then switch allocation and flit transmission. It looks only at
// occupied VCs; with none, or with nothing waiting, ready or gained
// since the last VA pass, it returns at once.
func (r *Router) Step() {
	if r.resident == 0 || r.gained == 0 && r.unsettled()|r.movable() == 0 {
		return
	}
	r.allocateVCs()
	r.switchAllocate()
}

// unsettled ORs waiting over the ports.
func (r *Router) unsettled() (vcs uint64) {
	for p := range r.occ {
		vcs |= r.waiting(p)
	}
	return vcs
}

// movable ORs over the ports the allocated heads that hold a flit to
// send — the switch allocator's candidates before claims and stalls.
func (r *Router) movable() (vcs uint64) {
	for p := range r.alloc {
		vcs |= r.alloc[p] & r.ready[p]
	}
	return vcs
}

// allocateVCs performs VC allocation for every unallocated head entry,
// in round-robin order across (port, vc): the six injection queues, then
// each network port's VCs. The rotation start is derived from the cycle
// number rather than kept in a stateful arbiter, which makes an idle
// cycle a true no-op — the active-set scheduler depends on that to skip
// empty routers without perturbing arbitration. Only waiting heads are
// visited, in the rotation's four segments: the start port from the
// start VC up, the later ports, the earlier ports, the start port below
// the start VC.
func (r *Router) allocateVCs() {
	if r.gained != 0 {
		r.unblock()
	}
	if r.unsettled() == 0 {
		return
	}
	const inj = int(message.NumClasses)
	p0, v0 := 0, int(r.Env.Cycle()%r.tab.vaSlots)
	if v0 >= inj {
		nv := len(r.Inputs[1].VCs)
		p0, v0 = 1+(v0-inj)/nv, (v0-inj)%nv
	}
	below := uint64(1)<<v0 - 1
	r.allocatePort(p0, r.waiting(p0)&^below)
	for p := p0 + 1; p < nPorts; p++ {
		r.allocatePort(p, r.waiting(p))
	}
	for p := 0; p < p0; p++ {
		r.allocatePort(p, r.waiting(p))
	}
	r.allocatePort(p0, r.waiting(p0)&below)
}

// waiting returns the VCs of port p whose head awaits VA and may get it.
func (r *Router) waiting(p int) uint64 { return r.occ[p] &^ r.alloc[p] &^ r.blocked[p] }

// unblock makes every blocked head whose route names a port in gained
// wait for VA again, and clears gained.
func (r *Router) unblock() {
	for p := range r.blocked {
		vcs := r.Inputs[p].VCs
		for m := r.blocked[p]; m != 0; m &= m - 1 {
			if v := bits.TrailingZeros64(m); vcs[v].route&r.gained != 0 {
				r.blocked[p] &^= 1 << v
			}
		}
	}
	r.gained = 0
}

// allocatePort attempts VC allocation for the waiting heads among the
// VCs of port p named by mask, lowest first.
func (r *Router) allocatePort(p int, mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		v := &r.Inputs[p].VCs[bits.TrailingZeros64(mask)]
		if e := v.EntryAt(0); e.Arrived >= 1 {
			r.tryAllocate(v, e)
		}
	}
}

// tryAllocate attempts VC allocation for e, the head entry of v.
func (r *Router) tryAllocate(v *VC, e *Entry) {
	pkt := e.Pkt
	if pkt.Dst == r.ID {
		// Ejection: one packet per class at a time, NIC space required
		// (reservations honoured by the Env).
		if r.ejecting>>pkt.Class&1 != 0 || !r.Env.CanEject(r.ID, pkt) {
			return
		}
		r.Env.BeginEject(r.ID, pkt)
		r.ejecting |= 1 << pkt.Class
		e.Allocate(topology.Local, int(pkt.Class))
		r.alloc[v.port] |= 1 << v.idx
		return
	}
	// The head's route — per output port, the set of algorithm groups
	// that allow it, four bits each — is computed at its first attempt;
	// the VC forgets it when its head changes. (A packet still to travel
	// has some port, so 0 means unset.)
	t := r.tab
	if v.route == 0 {
		for g := 0; g < t.groups; g++ {
			for _, p := range r.ports(g, pkt.Dst) {
				v.route |= 1 << (4*(int(p)-1) + g)
			}
		}
	}
	// Score each port by its free allowed VCs downstream and keep the
	// best; ties go to a rotating pointer so symmetric traffic spreads.
	var free [nPorts]uint64
	var best uint64
	bestScore := 1
	for p, route := 1, v.route; p < nPorts; p, route = p+1, route>>4 {
		free[p] = t.vcs[route&15] << t.classShift[pkt.Class] & r.vcFree[p]
		if score := bits.OnesCount64(free[p]); score > bestScore {
			bestScore, best = score, 1<<p
		} else if score == bestScore {
			best |= 1 << p
		}
	}
	if best == 0 {
		r.blocked[v.port] |= 1 << v.idx
		return
	}
	choice := bits.TrailingZeros64(best)
	if best&(best-1) != 0 {
		choice = r.portTie.GrantMask(best)
	}
	// Prefer the highest-index free VC: adaptive channels before the
	// escape channel, which stays available as the guaranteed drain.
	pick := bits.Len64(free[choice]) - 1
	r.vcFree[choice] &^= 1 << pick
	e.Allocate(topology.Direction(choice), pick)
	r.alloc[v.port] |= 1 << v.idx
}

// switchAllocate runs the two-stage separable switch allocator and
// transmits winning flits.
func (r *Router) switchAllocate() {
	// Stage 1: each input port nominates one allocated head with a flit
	// to send whose output port is not claimed. A fault-stalled input
	// port nominates nothing: its buffered flits are frozen in place
	// until the stall clears (or the watchdogs give up on them). A nominee
	// has one output port, so the per-output request masks are complete
	// before any flit moves. Entries are read for the nominees only, and
	// for every candidate while some output port is claimed.
	var nominee [nPorts]int
	var outReqs [nPorts]uint64
	var nominated, granted uint64
	for p := 0; p < nPorts; p++ {
		reqs := r.alloc[p] & r.ready[p]
		if reqs == 0 || r.Stalled>>p&1 != 0 {
			continue
		}
		vcs := r.Inputs[p].VCs
		if r.Claimed != 0 {
			for m := reqs; m != 0; m &= m - 1 {
				v := bits.TrailingZeros64(m)
				if r.Claimed>>vcs[v].EntryAt(0).OutPort&1 != 0 {
					reqs &^= 1 << v
				}
			}
			if reqs == 0 {
				continue
			}
		}
		nominee[p] = r.saInArb[p].GrantMask(reqs)
		nominated |= 1 << p
		outReqs[vcs[nominee[p]].EntryAt(0).OutPort] |= 1 << p
	}
	// Stage 2: each output port picks among nominating inputs.
	for out := 0; out < nPorts; out++ {
		if outReqs[out] == 0 {
			continue
		}
		in := r.saOutArb[out].GrantMask(outReqs[out])
		granted |= 1 << in
		r.transmit(topology.Direction(in), nominee[in])
	}
	// An input whose nominated flit no output granted spent the cycle
	// stalled in switch allocation — the contention signal the telemetry
	// windows track.
	r.SwitchStalls += int64(bits.OnesCount64(nominated &^ granted))
}

// transmit moves one flit of the head packet at (in, vc) through the
// crossbar.
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
			r.ejecting &^= 1 << pkt.Class
		}
	} else {
		if isHead {
			pkt.Hops++
		}
		r.Env.SendFlit(int(r.outLinks[out]), flit, outVC)
	}
	if done {
		// The tail left this network VC: credit the upstream router.
		r.CreditUpstream(in, vc)
	}
}

// --- Controller-facing buffer manipulation (forced moves, upgrades) ---

// RemoveHeadPacket atomically extracts the fully-buffered head packet of
// (port, vc), releasing any downstream VC it had claimed and crediting
// the upstream router: the paper's prime router "increases the credit
// for the upstream router as soon as a FastPass-Packet departs"
// (§III-C4), and forced moves behave identically. Used by FastPass
// upgrades and Pitstop. Returns nil when the head is missing, streaming,
// or partially sent.
func (r *Router) RemoveHeadPacket(port topology.Direction, vc int) *message.Packet {
	pkt := r.RemoveHeadPacketNoCredit(port, vc)
	if pkt != nil {
		r.CreditUpstream(port, vc)
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
		if e.Out() == topology.Local {
			r.Env.CancelEject(r.ID, e.Pkt)
			r.ejecting &^= 1 << e.Pkt.Class
		} else {
			r.vcFree[e.OutPort] |= 1 << e.OutVC
			r.gained |= 15 << (4 * (e.OutPort - 1))
		}
		e.Allocated = false
	}
	return buf.RemoveHead()
}

// CreditUpstream releases the upstream claim on (port, vc) explicitly —
// the counterpart of RemoveHeadPacketNoCredit for slots a forced move
// ended up not refilling. (Edge ports with no physical in-link can only
// be populated by test/controller insertion; there is no upstream to
// credit.)
func (r *Router) CreditUpstream(port topology.Direction, vc int) {
	if port != topology.Local && r.inLinks[port] >= 0 {
		r.Env.SendVCFree(int(r.inLinks[port]), vc)
	}
}

// ClaimDownstreamVC marks (outPort, outVC) busy in this router's credit
// state. A controller that force-inserts a packet into the downstream
// router's input VC must claim it here (this router is that VC's only
// feeder); the claim clears through the normal credit return when the
// packet eventually leaves.
func (r *Router) ClaimDownstreamVC(port topology.Direction, vc int) {
	r.vcFree[port] &^= 1 << vc
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
	r.Env.WakeRouter(r.ID)
	return true
}

// InsertOverflow places a packet into (port, vc) beyond capacity —
// only FastPass's rejected-packet return path may do this (see
// VC.EnqueueOverflow).
func (r *Router) InsertOverflow(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].EnqueueOverflow(pkt, r.Env.Cycle())
	r.Env.WakeRouter(r.ID)
}

// InsertFrontOverflow places a packet at the front of (port, vc) beyond
// capacity — FastPass's rejected-packet parking (see
// VC.EnqueueFrontOverflow).
func (r *Router) InsertFrontOverflow(port topology.Direction, vc int, pkt *message.Packet) {
	r.Inputs[port].VCs[vc].EnqueueFrontOverflow(pkt, r.Env.Cycle())
	r.Env.WakeRouter(r.ID)
}

// ForEachCandidate visits every (output port, downstream VC) pair the
// routing relation allows for a head packet buffered at this router —
// the resources the packet could be waiting for. The deadlock watchdog
// uses it to extract waits-for edges from a wedged network. Pairs are
// visited in deterministic order — ports as the VC algorithms first
// name them, a port's VCs ascending; the call shares the router's
// routing scratch, so it must not run concurrently with Step.
func (r *Router) ForEachCandidate(pkt *message.Packet, visit func(port topology.Direction, gvc int)) {
	var ports [nPorts]topology.Direction
	var vcs [nPorts]uint64
	n := 0
	for g := 0; g < r.tab.groups; g++ {
		for _, p := range r.ports(g, pkt.Dst) {
			if vcs[p] == 0 {
				ports[n] = p
				n++
			}
			vcs[p] |= r.tab.vcs[1<<g] << r.tab.classShift[pkt.Class]
		}
	}
	for _, p := range ports[:n] {
		for m := vcs[p]; m != 0; m &= m - 1 {
			visit(p, bits.TrailingZeros64(m))
		}
	}
}

// ResidentPackets returns every packet buffered in this router,
// front-to-back per VC (diagnostics and conservation checks).
func (r *Router) ResidentPackets() []*message.Packet {
	var pkts []*message.Packet
	for p, v := range r.OccupiedVCs(topology.Local) {
		q := r.VCFor(p, v)
		for i := 0; i < q.Len(); i++ {
			pkts = append(pkts, q.EntryAt(i).Pkt)
		}
	}
	return pkts
}
