package fastpass

import (
	"math/bits"
	"slices"

	"repro/internal/message"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/topology"
)

// Circulating lanes: the paper's §III-F, once. FastPass lanes for any
// connected topology come from a holistic closed walk over its directed
// links. Lane heads ride that walk in lock-step, one link per cycle,
// evenly spaced; because every head advances together and the spacing
// exceeds a packet's flit train, two lanes can never claim the same
// link in the same cycle (Lemma 2 on the walk). A free lane passing a
// router promotes a buffered head packet and carries it bufferlessly
// along the walk to its destination — the walk visits every node, so
// every source/destination pair is eventually served (Lemma 1).
//
// Acceptance at the destination is guaranteed by a reservation taken at
// promotion, with a small landing register per node absorbing arrivals
// that find the ejection queue momentarily full (the paper leaves
// irregular rejection handling unspecified; a returning path along the
// walk would cross other lanes' links).
//
// The engine is arithmetic over one loop and does not know what fabric
// it rides: a graph network (AttachWalk) and the mesh controller's
// self-healing mode (healing.go) both drive it through LaneHost.

// LaneHost is the fabric under a WalkLanes engine.
type LaneHost interface {
	// ClaimLink asserts lane ownership of a directed link for this
	// cycle; a second claim of the same link is a lane collision.
	ClaimLink(link int)
	// VC returns input buffer vc of port at node. Port 0 holds the
	// per-class injection queues, indexed by message class.
	VC(node, port, vc int) *router.VC
	// Occupancy fills occ[port] with node's occupancy word for that
	// port: bit vc is set while buffer vc holds a packet.
	Occupancy(node int, occ []uint64)
	// RemoveHead extracts that buffer's fully buffered head packet,
	// releasing what it had been allocated and crediting upstream.
	RemoveHead(node, port, vc int) *message.Packet
	// Admit reports whether pkt's destination can promise acceptance to
	// one more lane packet.
	Admit(pkt *message.Packet) bool
	// Note reports a lane event at node: the host's reservation
	// bookkeeping, counters and trace.
	Note(ev LaneEvent, pkt *message.Packet, node int)
}

// LaneEvent is what happened to a packet on a circulating lane.
type LaneEvent int

const (
	// LaneBoarded: promoted onto a lane; the host takes the reservation
	// Admit just promised.
	LaneBoarded LaneEvent = iota
	// LaneLanded: arrived to a full ejection queue and waits in the
	// landing register, reservation held.
	LaneLanded
	// LaneDelivered: ejected at its destination; the reservation is
	// spent.
	LaneDelivered
)

// WalkLanes is the circulating-lane engine over one closed walk.
type WalkLanes struct {
	host   LaneHost
	links  []topology.Link
	nics   []*nic.NIC
	netVCs int
	// InjectionOnly restricts pickup to the injection queues (the
	// ScanInjectionOnly ablation).
	InjectionOnly bool

	walk []int // link IDs; closed, every link at most once
	// arrivals lists the walk positions whose link ends at node v in
	// arrivals[arrStart[v]:arrStart[v+1]], ascending; a pure function
	// of walk.
	arrivals []int
	arrStart []int
	pos      []int // lane i's head position on the walk
	lanes    []walkLane
	// landing[node] holds arrived packets awaiting ejection-queue space.
	landing [][]*message.Packet
	scan    []scanSlot
	occ     []uint64 // pickup scratch: the passed router's occupancy words
}

// walkLane is one circulating lane.
type walkLane struct {
	pkt *message.Packet
	// dstCountdown is walk steps until the head reaches the packet's
	// destination; progress counts cycles since boarding (bounds the
	// flit train's rear claims); scanPtr is the lane's RR cursor over
	// network input buffers.
	dstCountdown int
	progress     int
	scanPtr      int
}

// scanSlot identifies one buffer in a pickup scan.
type scanSlot struct{ port, vc int }

// appendScanOrder appends the paper's candidate scan order (Qn 2) over
// the buffers that hold a packet (occ[port] bit vc): the request
// injection queue, the response queue, the remaining injection queues,
// then — unless injectionOnly — the network buffers round-robin from ptr
// (ports 1 and up, netVCs each). An empty router costs len(occ) loads.
func appendScanOrder(buf []scanSlot, occ []uint64, ptr, netVCs int, injectionOnly bool) []scanSlot {
	const first = uint64(1)<<message.Request | uint64(1)<<message.Response
	buf = appendSet(buf, 0, occ[0]&first)
	buf = appendSet(buf, 0, occ[0]&^first)
	if injectionOnly || len(occ) < 2 {
		return buf
	}
	p0, below := 1+ptr/netVCs, uint64(1)<<(ptr%netVCs)-1
	buf = appendSet(buf, p0, occ[p0]&^below)
	for p := p0 + 1; p < len(occ); p++ {
		buf = appendSet(buf, p, occ[p])
	}
	for p := 1; p < p0; p++ {
		buf = appendSet(buf, p, occ[p])
	}
	return appendSet(buf, p0, occ[p0]&below)
}

// appendSet appends port's buffers in mask, ascending.
func appendSet(buf []scanSlot, port int, mask uint64) []scanSlot {
	for ; mask != 0; mask &= mask - 1 {
		buf = append(buf, scanSlot{port, bits.TrailingZeros64(mask)})
	}
	return buf
}

// NewWalkLanes builds an engine with no walk installed. links is the
// fabric's directed-link table (walks are lists of its IDs), nics its
// per-node interfaces; every router has ports ports (Local included)
// with netVCs buffers on each network port.
func NewWalkLanes(host LaneHost, links []topology.Link, nics []*nic.NIC, ports, netVCs int) *WalkLanes {
	return &WalkLanes{
		host: host, links: links, nics: nics, netVCs: netVCs,
		landing: make([][]*message.Packet, len(nics)),
		scan:    make([]scanSlot, 0, int(message.NumClasses)+(ports-1)*netVCs),
		occ:     make([]uint64, ports),
	}
}

// Install replaces the walk and spreads lanes idle lane heads evenly
// around it, capped so heads stay at least MaxPktLen+2 links apart —
// the spacing that makes lock-step claims collision-free — and never
// fewer than one. Landing registers are untouched: a landed packet's
// delivery does not depend on the walk. An empty walk uninstalls. The
// engine copies walk, and re-installing a walk no longer than the last
// allocates nothing.
func (w *WalkLanes) Install(walk []int, lanes int) {
	lanes = max(1, min(lanes, len(walk)/(MaxPktLen+2)))
	if len(walk) == 0 {
		lanes = 0
	}
	w.reset(walk, lanes)
	for i := range w.pos {
		w.pos[i] = w.spacing(i)
	}
}

// spacing is lane i's head position at Install. Heads advance in lock
// step, so lane i always sits this far ahead of lane 0, mod the walk.
func (w *WalkLanes) spacing(i int) int { return i * len(w.walk) / len(w.pos) }

func (w *WalkLanes) reset(walk []int, lanes int) {
	w.walk = append(w.walk[:0], walk...)
	// Counting sort by arrival node; filling backwards walks each
	// arrStart[v] from node v's end back to its start.
	w.arrStart = append(w.arrStart[:0], make([]int, len(w.nics)+1)...)
	for _, id := range walk {
		w.arrStart[w.links[id].Dst]++
	}
	for v := 1; v < len(w.arrStart); v++ {
		w.arrStart[v] += w.arrStart[v-1]
	}
	w.arrivals = append(w.arrivals[:0], make([]int, len(walk))...)
	for p := len(walk) - 1; p >= 0; p-- {
		dst := w.links[walk[p]].Dst
		w.arrStart[dst]--
		w.arrivals[w.arrStart[dst]] = p
	}
	w.pos = append(w.pos[:0], make([]int, lanes)...)
	w.lanes = append(w.lanes[:0], make([]walkLane, lanes)...)
}

// Active reports whether a walk is installed; a nil engine is not.
func (w *WalkLanes) Active() bool { return w != nil && len(w.walk) > 0 }

// Len is the number of circulating lanes.
func (w *WalkLanes) Len() int { return len(w.lanes) }

// Riding counts lanes carrying a packet.
func (w *WalkLanes) Riding() int {
	n := 0
	for i := range w.lanes {
		if w.lanes[i].pkt != nil {
			n++
		}
	}
	return n
}

// ForEachHeld visits every packet the engine holds: riding a lane, then
// waiting in a landing register.
func (w *WalkLanes) ForEachHeld(f func(*message.Packet)) {
	for i := range w.lanes {
		if p := w.lanes[i].pkt; p != nil {
			f(p)
		}
	}
	for _, l := range w.landing {
		for _, p := range l {
			f(p)
		}
	}
}

// Steps returns how many walk steps a head at position pos takes to
// first arrive at node dst — in [1, len(walk)] on a walk that visits
// dst — or -1 if dst never appears.
func (w *WalkLanes) Steps(pos, dst int) int {
	arr := w.arrivals[w.arrStart[dst]:w.arrStart[dst+1]]
	if len(arr) == 0 {
		return -1
	}
	// First arrival position >= pos, else wrap to the earliest.
	a := arr[0] + len(w.walk)
	if i, _ := slices.BinarySearch(arr, pos); i < len(arr) {
		a = arr[i]
	}
	return a - pos + 1
}

// Step advances every lane one walk link: trains claim the links under
// their flits, arrivals deliver, and — when pickup is set — free lanes
// scan the router they pass. (A lane that delivered this cycle stays
// cold until the next: its final link claims are still live.)
func (w *WalkLanes) Step(cycle int64, pickup bool) {
	L := len(w.walk)
	for i := range w.lanes {
		ls := &w.lanes[i]
		pos := w.pos[i]
		if ls.pkt != nil {
			// Flit k crosses the link k positions behind the head; the
			// rear never reaches behind the boarding point.
			rear := ls.pkt.Len - 1
			if ls.progress < rear {
				rear = ls.progress
			}
			for k := 0; k <= rear; k++ {
				w.host.ClaimLink(w.walk[((pos-k)%L+L)%L])
			}
			w.ride(ls, cycle)
		} else if pickup {
			w.tryPickup(ls, pos, cycle)
		}
		w.pos[i] = (pos + 1) % L
	}
}

// ride accounts one cycle of a lane's packet on the walk and lands it
// when its head reaches the destination. The reservation taken at
// promotion guarantees a slot eventually; if the ejection queue has
// room right now the packet passes straight through.
func (w *WalkLanes) ride(ls *walkLane, cycle int64) {
	pkt := ls.pkt
	pkt.FastCycles++
	ls.progress++
	ls.dstCountdown--
	if ls.dstCountdown > 0 {
		return
	}
	ls.pkt = nil
	if !w.eject(pkt, cycle) {
		w.landing[pkt.Dst] = append(w.landing[pkt.Dst], pkt)
		w.host.Note(LaneLanded, pkt, pkt.Dst)
	}
}

func (w *WalkLanes) eject(pkt *message.Packet, cycle int64) bool {
	nic := w.nics[pkt.Dst]
	if !nic.CanEject(pkt) {
		return false
	}
	nic.EjectFast(cycle, pkt)
	w.host.Note(LaneDelivered, pkt, pkt.Dst)
	return true
}

// DrainLandings retries landed packets against their ejection queues;
// they hold the reservation made at promotion, so space reaches them
// first.
func (w *WalkLanes) DrainLandings(cycle int64) {
	for node, l := range w.landing {
		if len(l) == 0 {
			continue
		}
		kept := l[:0]
		for _, pkt := range l {
			if !w.eject(pkt, cycle) {
				kept = append(kept, pkt)
			}
		}
		w.landing[node] = kept
	}
}

// tryPickup promotes a head packet at the node the lane head is leaving
// this cycle, provided its destination admits it.
func (w *WalkLanes) tryPickup(ls *walkLane, pos int, cycle int64) {
	node := w.links[w.walk[pos]].Src
	w.host.Occupancy(node, w.occ)
	w.scan = appendScanOrder(w.scan[:0], w.occ, ls.scanPtr, w.netVCs, w.InjectionOnly)
	for _, b := range w.scan {
		e := w.host.VC(node, b.port, b.vc).Head()
		if !e.FullyBuffered() || e.Pkt.Dst == node {
			continue
		}
		if !w.host.Admit(e.Pkt) {
			continue
		}
		steps := w.Steps(pos, e.Pkt.Dst)
		if steps < 0 {
			continue
		}
		pkt := w.host.RemoveHead(node, b.port, b.vc)
		if b.port != 0 {
			ls.scanPtr = ((b.port-1)*w.netVCs + b.vc + 1) % ((len(w.occ) - 1) * w.netVCs)
		}
		pkt.Kind = message.FastPass
		*ls = walkLane{pkt: pkt, dstCountdown: steps, scanPtr: ls.scanPtr}
		w.host.Note(LaneBoarded, pkt, node)
		// The head flit crosses this cycle's walk link immediately; a
		// single-hop ride arrives as it boards.
		w.host.ClaimLink(w.walk[pos])
		w.ride(ls, cycle)
		return
	}
}
