// Package network assembles routers, links and NICs into a running NoC
// and drives the two-phase cycle loop. All inter-router state (flits on
// links, credit returns) lives in pipelined registers written during a
// cycle and shifted at its end, so router evaluation order can never
// leak zero-latency information.
//
// Scheme behaviour plugs in through the Controller interface: FastPass's
// lane manager, SPIN/SWAP/DRAIN's recovery engines and Pitstop's
// rotating NI bypass all observe the network in PreCycle, claim links or
// ejection ports, and move packets through the routers' explicit buffer
// APIs.
package network

import (
	"fmt"
	"iter"

	"repro/internal/faults"
	"repro/internal/message"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/spare"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Controller is a scheme's global agent. PreCycle runs before NIC and
// router evaluation (claims for the *current* cycle are made here —
// modelling lookahead signals that in hardware arrive a cycle early);
// PostCycle runs after routers but before registers shift.
type Controller interface {
	Name() string
	PreCycle(n *Network)
	PostCycle(n *Network)
}

// NopController is a Controller that does nothing (pure router schemes
// such as EscapeVC).
type NopController struct{ Label string }

// Name implements Controller.
func (c NopController) Name() string { return c.Label }

// PreCycle implements Controller.
func (NopController) PreCycle(*Network) {}

// PostCycle implements Controller.
func (NopController) PostCycle(*Network) {}

// transit is a flit in flight on a directed link. When fault injection
// is attached the flit also carries its payload word and per-flit
// checksum, so wire corruption is detected — not assumed — at delivery.
// The words lead and vc is an int32: every channel holds two stages,
// 32 bytes each.
type transit struct {
	flit    message.Flit
	payload uint64
	vc      int32
	valid   bool
	sum     uint8
}

// channel is one directed link: a one-stage flit pipeline downstream and
// a credit pipeline upstream.
type channel struct {
	link topology.Link
	// next is the wire: it carries the flit driven this cycle. cur is
	// the downstream router's link input latch, holding last cycle's
	// flit until it is written into an input VC at the end of this
	// cycle. Total per-hop latency: 1-cycle router + 1-cycle link.
	cur, next transit
	// creditNext carries VC-free indices flowing back to the source. Each
	// downstream VC frees at most once a cycle, so New sizes it to the
	// router's VC count and it never grows.
	creditNext []int
	// flits counts regular flit launches onto this link over the run
	// (per-link utilisation telemetry).
	flits int64
}

// Params configures a network build.
type Params struct {
	Mesh     *topology.Mesh
	Router   router.Config
	EjectCap int
}

// Network is a complete NoC instance.
type Network struct {
	Mesh    *topology.Mesh
	Routers []*router.Router
	NICs    []*nic.NIC
	nicSlab []nic.NIC // what NICs points into

	Controller Controller

	channels    []*channel
	chans       []channel // what channels points into
	credits     []int     // the channels' credit pipes, one window each
	linkClaims  []bool
	ejectClaims []bool
	cycle       int64

	// The active-set cycle engine (DESIGN.md §9): the routers and NICs
	// that hold work, each kept sorted by node ID.
	activeRouters activeSet
	activeNICs    activeSet
	// dirtyChannels lists the channels carrying traffic, deduplicated by
	// chDirty: traverse (SendFlit/SendVCFree) marks them, shift consumes
	// and rewrites the list.
	dirtyChannels []int
	chDirty       []bool
	claimedLinks  []int
	claimedEjects []int
	masked        []int // routers whose Claimed or Stalled beginCycle must clear
	ids           []int // what claimedEjects and masked are windows onto

	// FlitsOnLinks counts regular flit-cycles spent on links (link
	// utilisation statistics).
	FlitsOnLinks int64

	// faults, when attached, degrades the hardware each cycle: failed
	// links refuse new regular flits, stalled ports freeze, wire bits
	// flip, credit pulses vanish. Nil on healthy runs — every fault
	// check is behind a nil test, so the common path pays one branch.
	faults *faults.Injector

	// Probe, when set, runs at the end of every Step, after registers
	// shift and before the cycle counter advances. The invariant
	// watchdogs hang off it; a plain func field keeps the dependency
	// one-way (invariant imports network, never the reverse).
	Probe func()

	// Hook, when set, is told each Phase of Step as it begins (the run
	// loop sets it from sim.Instance.Hook).
	Hook func(Phase)

	// Trace, when non-nil, is the run's event recorder: the controller
	// records its promotions, rejections and recovery actions into it.
	Trace *trace.Recorder
}

// Phase names a boundary of the run loop (DESIGN.md §4.1). A Hook is
// called with each phase as it begins, and the phase lasts until the
// next call. The constants through Checkpoint run in the order a cycle
// reports them; the network reports Begin to Probe, the harness the rest.
type Phase uint8

// The phases of a cycle.
const (
	PhaseSource     Phase = iota // the traffic source ticks: generator or protocol engine
	PhaseEnqueue                 // the generator's packets go to their source NICs
	PhaseBegin                   // active sets compact, claims expire, faults advance
	PhasePreCycle                // the controller's PreCycle: lookahead claims for this cycle
	PhaseConsume                 // NIC consumption
	PhaseInject                  // NIC injection
	PhaseRoute                   // router VA and SA, link and ejection traversal
	PhasePostCycle               // the controller's PostCycle
	PhaseShift                   // link and credit registers shift
	PhaseProbe                   // the invariant Probe, when one is attached
	PhaseTelemetry               // the window clock and progress stride of a synthetic run
	PhaseCheckpoint              // a due checkpoint is sealed, before the next cycle's source
	PhaseRestore                 // a resumed run decodes its checkpoint, before its first cycle
	PhaseDeflect                 // MinBD's whole step: its only network phase
	PhaseEject                   // nested where a delivery observer runs
	PhaseEjectEnd                // the observer returned; the enclosing phase resumes
)

// phase reports p to the hook. Unset, a boundary costs one nil check.
func (n *Network) phase(p Phase) {
	if n.Hook != nil {
		n.Hook(p)
	}
}

// New builds a network. The Controller starts as a no-op; schemes attach
// theirs afterwards.
func New(p Params) *Network {
	if p.EjectCap < 1 {
		panic("network: ejection capacity must be positive")
	}
	n := &Network{
		Mesh:       p.Mesh,
		Controller: NopController{Label: "none"},
	}
	// Everything the cycle loop appends to is sized to its hard upper
	// bound here, so Step never grows a slice (DESIGN.md §9). Every array
	// comes from a store that Release returns it to.
	links, nodes := p.Mesh.Links(), p.Mesh.NumNodes()
	netVCs := p.Router.NetVCs()
	n.channels = spareChannelIndex.Take(len(links))
	n.chans = spareChannels.Take(len(links))
	n.credits = spareInts.Take(len(links) * netVCs)
	for i, l := range links {
		n.chans[i] = channel{link: l, creditNext: n.credits[i*netVCs : i*netVCs : (i+1)*netVCs]}
		n.channels[i] = &n.chans[i]
	}
	n.linkClaims = spareBools.Take(len(links))
	n.ejectClaims = spareBools.Take(nodes)
	n.chDirty = spareBools.Take(len(links))
	n.dirtyChannels = spareInts.Take(len(links))[:0]
	n.claimedLinks = spareInts.Take(len(links))[:0]
	n.ids = spareInts.Take(2 * nodes)
	n.claimedEjects, n.masked = n.ids[:0:nodes], n.ids[nodes:nodes]
	n.activeRouters, n.activeNICs = newActiveSet(nodes), newActiveSet(nodes)
	n.Routers = router.NewAll(p.Mesh, p.Router, n)
	n.nicSlab, n.NICs = spareNICs.Take(nodes), spareNICIndex.Take(nodes)
	// One closure serves every NIC: whoever enqueues a packet at a source
	// picks NICs[pkt.Src], so Src names the injecting router.
	inject := func(pkt *message.Packet) bool { return n.Routers[pkt.Src].InjectPacket(pkt) }
	for id := range n.NICs {
		n.nicSlab[id] = *nic.New(id, p.EjectCap)
		nc := &n.nicSlab[id]
		nc.Inject = inject
		nc.Waker = n
		n.NICs[id] = nc
	}
	return n
}

// The stores New takes its arrays from and Release returns them to.
var (
	spareChannels     spare.Store[channel]
	spareChannelIndex spare.Store[*channel]
	spareNICs         spare.Store[nic.NIC]
	spareNICIndex     spare.Store[*nic.NIC]
	spareInts         spare.Store[int]
	spareBools        spare.Store[bool]
)

// Release hands every array New took, the routers' with them
// (router.Release), to the next network built in the process. Nothing
// may step n, or hold one of its routers, channels or NICs, afterwards.
func (n *Network) Release() {
	router.Release(n.Routers)
	spareChannelIndex.Put(n.channels)
	spareChannels.Put(n.chans)
	spareNICIndex.Put(n.NICs)
	spareNICs.Put(n.nicSlab)
	for _, a := range [][]int{n.credits, n.dirtyChannels, n.claimedLinks, n.ids, n.activeRouters.ids, n.activeNICs.ids} {
		spareInts.Put(a)
	}
	for _, a := range [][]bool{n.linkClaims, n.ejectClaims, n.chDirty, n.activeRouters.in, n.activeNICs.in} {
		spareBools.Put(a)
	}
	*n = Network{}
}

// NIC returns the network interface of a node (protocol backend).
func (n *Network) NIC(node int) *nic.NIC { return n.NICs[node] }

// Nodes reports the node count (protocol backend).
func (n *Network) Nodes() int { return n.Mesh.NumNodes() }

// AttachFaults wires a fault injector into the network. Call before the
// first Step.
func (n *Network) AttachFaults(inj *faults.Injector) { n.faults = inj }

// Faults returns the attached injector, or nil.
func (n *Network) Faults() *faults.Injector { return n.faults }

// --- router.Env implementation ---

// Cycle implements router.Env.
func (n *Network) Cycle() int64 { return n.cycle }

// SendFlit implements router.Env.
func (n *Network) SendFlit(linkID int, f message.Flit, outVC int) {
	ch := n.channels[linkID]
	if ch.next.valid {
		panic(fmt.Sprintf("network: two flits driven onto link %d in cycle %d", linkID, n.cycle))
	}
	tr := transit{flit: f, vc: int32(outVC), valid: true}
	if n.faults != nil {
		tr.payload = message.FlitPayload(f.Pkt.ID, f.Seq)
		tr.sum = message.Checksum(tr.payload)
	}
	ch.next = tr
	ch.flits++
	n.FlitsOnLinks++
	n.markChannel(linkID)
}

// SendVCFree implements router.Env.
func (n *Network) SendVCFree(linkID int, vc int) {
	ch := n.channels[linkID]
	ch.creditNext = append(ch.creditNext, vc)
	n.markChannel(linkID)
}

// WakeRouter implements router.Env: the node's router gained a packet
// and joins the active set (idempotent).
func (n *Network) WakeRouter(node int) { n.activeRouters.add(node) }

// WakeNIC implements nic.Waker: the node's NIC gained work and joins
// the active set (idempotent).
func (n *Network) WakeNIC(node int) { n.activeNICs.add(node) }

// markChannel registers a channel as carrying traffic so shift visits
// it.
func (n *Network) markChannel(linkID int) {
	if !n.chDirty[linkID] {
		n.chDirty[linkID] = true
		n.dirtyChannels = append(n.dirtyChannels, linkID)
	}
}

// CanEject implements router.Env.
func (n *Network) CanEject(node int, pkt *message.Packet) bool {
	return n.NICs[node].CanEject(pkt)
}

// BeginEject implements router.Env.
func (n *Network) BeginEject(node int, pkt *message.Packet) { n.NICs[node].BeginEject(pkt) }

// CancelEject implements router.Env.
func (n *Network) CancelEject(node int, pkt *message.Packet) { n.NICs[node].CancelEject(pkt) }

// EjectFlit implements router.Env.
func (n *Network) EjectFlit(node int, f message.Flit) { n.NICs[node].EjectFlit(n.cycle, f) }

// --- controller-facing API ---

// ClaimLink asserts bypass ownership of a directed link for the current
// cycle. Double claims panic: non-overlap of FastPass-Lanes (and their
// returning paths) is a correctness invariant of the paper, so a
// violation is a simulator bug, not a runtime condition. The invariant
// also covers the healed circulating lanes a controller installs after
// a permanent link failure — their fixed spacing on the re-derived walk
// must keep claims disjoint exactly like the mesh lanes they replace.
func (n *Network) ClaimLink(linkID int) {
	if !n.TryClaimLink(linkID) {
		panic(fmt.Sprintf("network: link %d claimed twice in cycle %d — lanes overlap", linkID, n.cycle))
	}
}

// TryClaimLink claims a link if free and reports success. Opportunistic
// bypasses (TFC tokens) use it — unlike FastPass lanes, their claims may
// collide by design, and the loser simply stays buffered.
func (n *Network) TryClaimLink(linkID int) bool {
	if n.linkClaims[linkID] {
		return false
	}
	n.linkClaims[linkID] = true
	n.claimedLinks = append(n.claimedLinks, linkID)
	n.barLink(linkID)
	return true
}

// ClaimEject asserts bypass ownership of a node's ejection port for the
// current cycle.
func (n *Network) ClaimEject(node int) {
	if n.ejectClaims[node] {
		panic(fmt.Sprintf("network: ejection port %d claimed twice in cycle %d", node, n.cycle))
	}
	n.ejectClaims[node] = true
	n.claimedEjects = append(n.claimedEjects, node)
	n.mask(node).Claimed |= 1 << topology.Local
}

// barLink claims the link's output port in its source router.
func (n *Network) barLink(linkID int) {
	l := &n.channels[linkID].link
	n.mask(l.Src).Claimed |= 1 << l.SrcPort
}

// mask returns the node's router, listing it for beginCycle to clear.
func (n *Network) mask(node int) *router.Router {
	r := n.Routers[node]
	if r.Claimed|r.Stalled == 0 {
		n.masked = append(n.masked, node)
	}
	return r
}

// pushFaults bars every link the injector holds down, as a claim would,
// and freezes every input port it holds stalled. The claim array is
// untouched, so FastPass lanes (dedicated wiring, Fig. 6) still claim and
// cross a failed link: the resilience story under test.
func (n *Network) pushFaults() {
	links, ports := n.faults.Active()
	for _, id := range links {
		n.barLink(int(id))
	}
	np := int32(n.Mesh.NumPorts())
	for _, v := range ports {
		n.mask(int(v / np)).Stalled |= 1 << (v % np)
	}
}

// --- simulation loop ---

// ActiveRouters iterates the routers currently holding packets, in
// ascending ID order — the exact subset of a 0..N-1 scan whose visit
// would not be a no-op. Controllers use it for their per-cycle scans.
// A router woken during the iteration (a forced move into an empty
// neighbour) is visited this pass iff its ID is ahead of the cursor,
// precisely matching full-scan semantics.
func (n *Network) ActiveRouters() iter.Seq[*router.Router] {
	//nocvet:ignore hotalloc2 iterator literal is ranged immediately by every caller and never escapes; the alloc-guard test pins 0 allocs/cycle
	return func(yield func(*router.Router) bool) {
		s := &n.activeRouters
		for s.cur = 0; s.cur < len(s.ids); s.cur++ {
			if !yield(n.Routers[s.ids[s.cur]]) {
				s.cur = -1
				return
			}
		}
		s.cur = -1
	}
}

// ActiveRouterCount reports the current active-set size (diagnostics).
func (n *Network) ActiveRouterCount() int { return len(n.activeRouters.ids) }

// Step advances the network one cycle. Only active routers and NICs are
// visited; see DESIGN.md §9 for the argument that this is observably
// identical to the historical visit-everyone loop.
//
//nocvet:hot
func (n *Network) Step() {
	n.phase(PhaseBegin)
	// Retire members that went idle in an earlier cycle. Compaction is
	// deliberately the first thing in a cycle — never mid-iteration —
	// and is purely an optimisation: a stale active member's Step/Tick
	// is a no-op.
	n.activeRouters.compact(n.routerOccupied)
	n.activeNICs.compact(n.nicBusy)
	n.beginCycle()
	// NIC consumption before NIC injection, as two passes rather than
	// one fused Tick: consumption's only self-feedback is same-node
	// (protocol responses enqueue at the consuming core), so splitting
	// the phases is order-preserving.
	nics := &n.activeNICs
	n.phase(PhaseConsume)
	for nics.cur = 0; nics.cur < len(nics.ids); nics.cur++ {
		n.NICs[nics.ids[nics.cur]].TickConsume(n.cycle)
	}
	nics.cur = -1
	n.phase(PhaseInject)
	for nics.cur = 0; nics.cur < len(nics.ids); nics.cur++ {
		n.NICs[nics.ids[nics.cur]].TickInject(n.cycle)
	}
	nics.cur = -1
	routers := &n.activeRouters
	n.phase(PhaseRoute)
	for routers.cur = 0; routers.cur < len(routers.ids); routers.cur++ {
		n.Routers[routers.ids[routers.cur]].Step()
	}
	routers.cur = -1
	n.phase(PhasePostCycle)
	n.Controller.PostCycle(n)
	n.phase(PhaseShift)
	n.shift()
	if n.Probe != nil {
		n.phase(PhaseProbe)
		n.Probe()
	}
	n.cycle++
}

// beginCycle is the cycle prologue: expire claims, advance fault state,
// run the controller's PreCycle. Fault state advances before
// controllers and routers observe the cycle, so a link that fails this
// cycle refuses flits this cycle.
func (n *Network) beginCycle() {
	for _, id := range n.masked {
		n.Routers[id].Claimed, n.Routers[id].Stalled = 0, 0
	}
	n.masked = n.masked[:0]
	for _, id := range n.claimedLinks {
		n.linkClaims[id] = false
	}
	n.claimedLinks = n.claimedLinks[:0]
	for _, id := range n.claimedEjects {
		n.ejectClaims[id] = false
	}
	n.claimedEjects = n.claimedEjects[:0]
	if n.faults != nil {
		n.faults.BeginCycle(n.cycle)
		n.pushFaults()
	}
	n.phase(PhasePreCycle)
	n.Controller.PreCycle(n)
}

func (n *Network) routerOccupied(id int) bool { return n.Routers[id].Occupied() }

func (n *Network) nicBusy(id int) bool { return !n.NICs[id].Idle() }

// shift advances the link and credit pipelines of every channel carrying
// traffic and delivers arrivals. Channels are visited in wake order, not
// link order — safe because each channel's effects land on state no
// other channel touches: flit delivery targets this link's unique
// (dst, port, vc) input and credits this link's unique (src, port)
// credit file; router wakes dedupe through the sorted active set.
func (n *Network) shift() {
	w := 0
	for i := 0; i < len(n.dirtyChannels); i++ {
		id := n.dirtyChannels[i]
		ch := n.channels[id]
		if ch.cur.valid {
			// Delivery is where the per-flit checksum is recomputed: a
			// payload bit flipped on the wire surfaces here and marks
			// the packet, never silently.
			if n.faults != nil && message.Checksum(ch.cur.payload) != ch.cur.sum {
				ch.cur.flit.Pkt.Corrupted = true
				n.faults.NoteCorruptionDetected()
			}
			n.Routers[ch.link.Dst].Deliver(ch.link.DstPort, int(ch.cur.vc), ch.cur.flit, n.cycle)
		}
		ch.cur = ch.next
		ch.next = transit{}
		// The flit that just crossed the wire may have had a bit
		// flipped by the injected corruption rate. Rolls are hashed per
		// (cycle, link) — not drawn from a sequential stream — so the
		// dirty-list visit order (which depends on wake history) cannot
		// reorder the draws.
		if n.faults != nil && ch.cur.valid && n.faults.RollCorrupt(id) {
			ch.cur.payload = n.faults.CorruptWord(ch.cur.payload, id)
		}
		if len(ch.creditNext) > 0 {
			src := n.Routers[ch.link.Src]
			for pulse, vc := range ch.creditNext {
				// A lost credit pulse never reaches the source: its
				// view of the downstream VC stays claimed forever —
				// the leak the credit-conservation watchdog hunts.
				if n.faults != nil && n.faults.RollCreditLoss(id, pulse) {
					continue
				}
				src.MarkVCFree(ch.link.SrcPort, vc)
			}
			ch.creditNext = ch.creditNext[:0]
		}
		if ch.cur.valid {
			n.dirtyChannels[w] = id
			w++
		} else {
			n.chDirty[id] = false
		}
	}
	n.dirtyChannels = n.dirtyChannels[:w]
}

// Run advances the network k cycles.
func (n *Network) Run(k int) {
	for i := 0; i < k; i++ {
		n.Step()
	}
}

// ResidentPackets returns every packet currently buffered in any router
// (conservation checks, deadlock diagnostics). Packets on links are
// counted via FlitsInFlight.
func (n *Network) ResidentPackets() []*message.Packet {
	var pkts []*message.Packet
	for _, r := range n.Routers {
		pkts = append(pkts, r.ResidentPackets()...)
	}
	return pkts
}

// FlitsInFlight counts flits in link pipelines.
func (n *Network) FlitsInFlight() int {
	c := 0
	for i := range n.channels {
		ch := n.channels[i]
		if ch.cur.valid {
			c++
		}
		if ch.next.valid {
			c++
		}
	}
	return c
}

// VerifyQuiescent checks the invariants of an empty network: no
// resident packets, no flits in flight, every credit returned (each
// router sees every downstream VC free), no pending credits in the
// pipes, and every NIC ring empty (source, ejection, reservations,
// reassembly). Drain-style tests call it after full delivery — any
// violation is a leak in buffer or credit bookkeeping.
func (n *Network) VerifyQuiescent() error {
	if got := len(n.ResidentPackets()); got != 0 {
		return fmt.Errorf("network: %d packets still resident", got)
	}
	if got := n.FlitsInFlight(); got != 0 {
		return fmt.Errorf("network: %d flits still on links", got)
	}
	for _, nc := range n.NICs {
		if err := nc.Quiescent(); err != nil {
			return fmt.Errorf("network: %w", err)
		}
	}
	for i := range n.channels {
		ch := n.channels[i]
		if len(ch.creditNext) != 0 {
			return fmt.Errorf("network: link %d has %d undelivered credits", ch.link.ID, len(ch.creditNext))
		}
	}
	for _, r := range n.Routers {
		for p := topology.Direction(1); int(p) < n.Mesh.NumPorts(); p++ {
			if r.OutLinkID(p) < 0 {
				continue
			}
			for v := 0; v < r.Cfg.NetVCs(); v++ {
				if !r.DownstreamVCFree(p, v) {
					return fmt.Errorf("network: router %d sees (%v, vc %d) still claimed at quiescence", r.ID, p, v)
				}
			}
		}
	}
	return nil
}

// NumChannels reports the number of directed links (invariant probes
// index channels 0..NumChannels-1).
func (n *Network) NumChannels() int { return len(n.channels) }

// ChannelLink returns the topology link a channel index corresponds to.
func (n *Network) ChannelLink(i int) topology.Link { return n.channels[i].link }

// LinkFlits reports the regular flits ever driven onto channel i (the
// per-link utilisation counter behind the telemetry link heatmap).
func (n *Network) LinkFlits(i int) int64 { return n.channels[i].flits }

// ChannelCarries reports whether channel i currently holds a flit for
// downstream VC vc in either pipeline stage (latch or wire). While it
// does, the source legitimately sees that VC as claimed even though the
// flit is not yet buffered downstream — the credit audit must not call
// that a leak.
func (n *Network) ChannelCarries(i int, vc int) bool {
	ch := n.channels[i]
	return (ch.cur.valid && int(ch.cur.vc) == vc) || (ch.next.valid && int(ch.next.vc) == vc)
}

// ChannelCreditPending reports whether a VC-free credit for vc is still
// in channel i's credit pipe — claimed upstream, already released
// downstream, in flight back. Also a legitimate claimed-but-empty state.
func (n *Network) ChannelCreditPending(i int, vc int) bool {
	for _, v := range n.channels[i].creditNext {
		if v == vc {
			return true
		}
	}
	return false
}

// ForEachTransit visits the packet of every flit currently in a link
// pipeline (both stages). Packets spanning several flits are visited
// once per flit; conservation checks dedup by packet.
func (n *Network) ForEachTransit(f func(*message.Packet)) {
	for i := range n.channels {
		ch := n.channels[i]
		if ch.cur.valid {
			f(ch.cur.flit.Pkt)
		}
		if ch.next.valid {
			f(ch.next.flit.Pkt)
		}
	}
}
