package fastpass

import (
	"fmt"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/spare"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Params tunes the controller.
type Params struct {
	// K overrides the slot length; 0 derives it from the paper's
	// formula (Qn 5).
	K int

	// Ablation knobs (default off = the paper's design). They exist to
	// quantify the design choices §III argues for; see the ablation
	// benchmarks and EXPERIMENTS.md.
	//
	// ScanInjectionOnly restricts the prime's candidate scan to the
	// injection queues, never the network input buffers — losing the
	// ability to rescue in-transit blocked packets (and with it
	// network-level deadlock freedom, per §III-C3 point (2)).
	ScanInjectionOnly bool
	// DropOnReject discards a rejected FastPass-Packet at the
	// destination instead of reserving the queue and returning it to
	// the prime — the SCARAB-style alternative the paper argues
	// against (§III-C4). The packet is regenerated at its source via
	// the MSHR path, so drops become frequent instead of rare.
	DropOnReject bool

	// Healing enables online lane re-derivation (healing.go): when the
	// fault injector marks a link permanently down, the controller
	// drains its flights, re-runs the §III-F holistic-walk derivation
	// on the surviving graph and resumes with circulating lanes over
	// the degraded fabric. Off, the controller is FastPass-static:
	// lanes whose round trip crosses a permanently dead link simply
	// stop launching.
	Healing bool
}

const (
	// RegenDelay is the MSHR regeneration latency for packets dropped
	// by the dynamic bubble (the miss information is local, so this is
	// short; §III-C4).
	RegenDelay = 16
	// MaxPktLen is the longest packet the traffic carries (5 flits in
	// the paper); it sizes the in-slot completion guard and the spacing
	// of circulating lanes.
	MaxPktLen = 5
)

// flight states.
const (
	stLane   = iota // traversing the FastPass-Lane toward the destination
	stReturn        // rejected: traversing the returning path to the prime
)

// flight is one FastPass-Packet in bufferless transit. All timing is
// deterministic from the start cycle — the property Lemma 1 rests on.
type flight struct {
	col   int // owning partition (prime's column)
	prime int // prime node ID
	pkt   *message.Packet

	state int
	// path is the current trajectory (lane, then return path after a
	// rejection); start is the cycle the head crossed path[0] in the
	// current state. For zero-length paths (dst == prime) start is the
	// cycle the packet began ejecting/parking.
	path  []*topology.Link
	start int64

	// rejected is set when the head found the destination's ejection
	// queue full; holder reports whether it secured the queue's single
	// reservation (it then parks at the front of the prime's request
	// injection queue for prompt re-selection).
	rejected bool
	holder   bool
}

// Counters aggregates the controller's activity for Figs. 9 and 13.
type Counters struct {
	Promoted   int64 // packets upgraded to FastPass-Packets
	FastEjects int64 // FastPass-Packets delivered bufferlessly
	Rejections int64 // arrivals that found a full ejection queue
	Parked     int64 // rejected packets returned to their prime
	Drops      int64 // injection request packets dropped (dynamic bubble)
	Regens     int64 // dropped packets regenerated by the MSHR model
	Heals      int64 // successful lane-schedule re-derivations (healing.go)
	HealFails  int64 // re-derivations abandoned because the fabric disconnected
}

// Controller implements network.Controller for FastPass.
type Controller struct {
	net   *network.Network
	mesh  *topology.Mesh
	sched Schedule
	prm   Params

	flights []*flight // per column; nil when the lane is idle
	// flightSlots backs flights: each column owns one flight struct
	// (and its path buffer) for its lifetime, so launching a flight
	// allocates nothing at steady state.
	flightSlots []flight
	// laneCool[col] is the cycle a flight last completed; the lane may
	// not relaunch that same cycle (its final link/ejection claims are
	// still live).
	laneCool []int64
	scanPtr  []int // per node: RR pointer over network input buffers

	// OnDrop, when set, takes over regeneration of dropped injection
	// request packets (the protocol engine re-issues from its MSHRs);
	// otherwise the controller re-queues the packet at the source NIC
	// after RegenDelay cycles.
	OnDrop func(pkt *message.Packet)

	regenQ  []regenEntry
	scanBuf []scanSlot

	// Healing state (healing.go). appliedGen is the injector's
	// permanent-failure generation the current wiring reflects;
	// draining pauses launches until the fabric is quiet; healFailed
	// latches a re-derivation that found the fabric disconnected. lanes
	// (allocated only under Params.Healing) is the circulating-lane
	// engine, active once a re-derived walk is installed.
	appliedGen uint64
	draining   bool
	healFailed bool
	lanes      *WalkLanes

	// deadLink/deadCount mirror the injector's permanently-failed set
	// (rebuilt per generation; transient — restored lazily after a
	// checkpoint resume via the restored flag). pathBuf is scratch for
	// laneDead's round-trip scans, walker for rederive's walk.
	deadLink  []bool
	deadCount int
	pathBuf   []*topology.Link
	restored  bool
	walker    topology.Walker

	Counters Counters
}

type regenEntry struct {
	pkt     *message.Packet
	readyAt int64
}

// Config returns the FastPass router configuration: the Table II router
// with one shared VC pool (FastPass needs no VNs), fully adaptive on
// every VC.
func Config(vcs int) router.Config {
	return router.TableII(vcs, false, routing.FullyAdaptive, routing.FullyAdaptive)
}

// Attach builds a FastPass controller for the network and installs it.
func Attach(net *network.Network, prm Params) *Controller {
	mesh := net.Mesh
	mesh.RequireMesh("fastpass.Attach's TDM lane schedule")
	sched := NewSchedule(mesh, mesh.NumPorts(), net.Routers[0].Cfg.NetVCs())
	if prm.K > 0 {
		sched.K = prm.K
	}
	if err := sched.Validate(); err != nil {
		//nocvet:ignore panicstyle Validate builds its errors with the "fastpass: " prefix
		panic(err)
	}
	c := &Controller{
		net:         net,
		mesh:        mesh,
		sched:       sched,
		prm:         prm,
		flights:     make([]*flight, sched.Partitions()),
		flightSlots: spareFlights.Take(sched.Partitions()),
		laneCool:    make([]int64, sched.Partitions()),
		scanPtr:     make([]int, mesh.NumNodes()),
	}
	// A lane or returning path is a minimal route: never longer than the
	// mesh diameter. Carving every column's path buffer (after the
	// round-trip scratch, two paths long) at that bound means launches
	// never allocate.
	diam := mesh.Diameter()
	paths := sparePaths.Take((sched.Partitions() + 2) * diam)
	for col := range c.flightSlots {
		c.flightSlots[col].path = paths[(col+2)*diam : (col+2)*diam : (col+3)*diam]
	}
	c.pathBuf = paths[:0]
	netVCs := net.Routers[0].Cfg.NetVCs()
	c.scanBuf = make([]scanSlot, 0, int(message.NumClasses)+(mesh.NumPorts()-1)*netVCs)
	if prm.Healing {
		c.lanes = NewWalkLanes((*healedHost)(c), mesh.Links(), net.NICs, mesh.NumPorts(), netVCs)
		c.lanes.InjectionOnly = prm.ScanInjectionOnly
	}
	net.Controller = c
	return c
}

// The stores Attach takes its largest arrays from and Release returns
// them to.
var (
	spareFlights spare.Store[flight]
	sparePaths   spare.Store[*topology.Link]
)

// Release hands the controller's flight slots and path buffers to the
// next Attach in the process. Nothing may use c afterwards.
func (c *Controller) Release() {
	spareFlights.Put(c.flightSlots)
	sparePaths.Put(c.pathBuf)
}

// Name implements network.Controller.
func (c *Controller) Name() string { return "FastPass" }

// PostCycle implements network.Controller.
func (c *Controller) PostCycle(*network.Network) {}

// PreCycle implements network.Controller: advance in-flight
// FastPass-Packets, regenerate dropped requests, upgrade new packets,
// and claim this cycle's links and ejection ports.
func (c *Controller) PreCycle(n *network.Network) {
	cycle := n.Cycle()
	c.regenerate(cycle)
	c.trackFaults()
	if c.lanes != nil {
		c.lanes.DrainLandings(cycle)
		if c.lanes.Active() {
			// A re-derived lane schedule is active: the mesh flights are
			// drained and the circulating lanes carry all FastPass
			// traffic (no pickups while a further heal drains them).
			c.lanes.Step(cycle, !c.draining)
			return
		}
	}
	for col := range c.flights {
		if f := c.flights[col]; f != nil {
			if c.stepFlight(f, cycle) {
				c.flights[col] = nil
				c.laneCool[col] = cycle
			}
		}
	}
	if c.draining {
		// Mid-heal: let the flights above land, launch nothing new.
		return
	}
	if c.sched.SlotRemaining(cycle) < minSlotLen(c.mesh.W, c.mesh.H) {
		// No room left for a worst-case round trip: flights never
		// straddle slot or phase boundaries — the lane configuration
		// they rely on would change under them.
		return
	}
	phase := c.sched.Phase(cycle)
	slot := c.sched.Slot(cycle)
	for col := 0; col < c.sched.Partitions(); col++ {
		if c.flights[col] != nil {
			continue
		}
		c.tryUpgrade(col, phase, slot, cycle)
	}
}

// regenerate re-issues dropped packets whose MSHR delay elapsed.
func (c *Controller) regenerate(cycle int64) {
	keep := c.regenQ[:0]
	for _, e := range c.regenQ {
		if e.readyAt > cycle {
			keep = append(keep, e)
			continue
		}
		e.pkt.InjectTime = -1
		c.net.NICs[e.pkt.Src].EnqueueSourceFront(e.pkt)
		c.Counters.Regens++
		c.net.Trace.Record(cycle, trace.PacketRegenerated, e.pkt.ID, e.pkt.Src, "")
	}
	c.regenQ = keep
}

// tryUpgrade lets the prime of col promote one packet whose destination
// lies in the covered partition (PreCycle has checked the slot's room).
// A prime holding nothing — nearly all of them at low load — is one
// load; an occupied one is scanned through its occupancy words.
func (c *Controller) tryUpgrade(col, phase, slot int, cycle int64) {
	prime := c.sched.PrimeNode(col, phase)
	r := c.net.Routers[prime]
	if !r.Occupied() {
		return
	}
	if c.laneCool[col] == cycle && cycle > 0 {
		// A flight completed this cycle; its final claims are still
		// live, so the lane relaunches next cycle at the earliest.
		return
	}
	covered := c.sched.Covered(col, slot)
	netVCs := r.Cfg.NetVCs()
	occ := r.Occupancy()
	c.scanBuf = appendScanOrder(c.scanBuf[:0], occ[:], c.scanPtr[prime], netVCs, c.prm.ScanInjectionOnly)
	for _, b := range c.scanBuf {
		port := topology.Direction(b.port)
		e := r.VCFor(port, b.vc).Head()
		if !e.FullyBuffered() || e.Pkt.Dst%c.sched.W != covered {
			continue
		}
		if c.deadCount > 0 && c.laneDead(prime, e.Pkt.Dst) {
			// Static degraded mode: the lane's dedicated wiring died with
			// the silicon, so this prime cannot serve this destination.
			continue
		}
		pkt := r.RemoveHeadPacket(port, b.vc)
		if pkt == nil {
			continue
		}
		if port != topology.Local {
			c.scanPtr[prime] = ((b.port-1)*netVCs + b.vc + 1) % ((len(occ) - 1) * netVCs)
		}
		c.launch(col, prime, pkt, cycle)
		return
	}
}

// launch starts a flight down the current FastPass-Lane. The column's
// flight slot (and its path buffer) is reused across launches.
func (c *Controller) launch(col, prime int, pkt *message.Packet, cycle int64) {
	pkt.Kind = message.FastPass
	f := &c.flightSlots[col]
	path := routing.AppendPathXY(c.mesh, f.path[:0], prime, pkt.Dst)
	*f = flight{
		col:   col,
		prime: prime,
		pkt:   pkt,
		state: stLane,
		path:  path,
		start: cycle,
	}
	c.flights[col] = f
	c.Counters.Promoted++
	if c.net.Trace != nil {
		// Guarded: Sprintf evaluates (and allocates) even when Record
		// is a nil-recorder no-op.
		//nocvet:ignore hotalloc2 guarded by Trace != nil — tracing runs are diagnostic; perf runs leave Trace unset
		c.net.Trace.Record(cycle, trace.PacketPromoted, pkt.ID, prime, fmt.Sprintf("lane %d -> node %d", col, pkt.Dst))
	}
	// Claims for this first cycle happen in stepFlight.
	if done := c.stepFlight(f, cycle); done {
		c.flights[col] = nil
		c.laneCool[col] = cycle
	}
}

// stepFlight performs this cycle's events and claims for a flight and
// reports whether it completed.
func (c *Controller) stepFlight(f *flight, cycle int64) bool {
	L := int64(len(f.path))
	n := int64(f.pkt.Len)
	f.pkt.FastCycles++
	switch f.state {
	case stLane:
		// Head reaches the destination at start+L. Decide acceptance
		// exactly once, at that cycle.
		if cycle == f.start+L {
			nic := c.net.NICs[f.pkt.Dst]
			if !nic.CanEject(f.pkt) {
				c.Counters.Rejections++
				c.net.Trace.Record(cycle, trace.PacketRejected, f.pkt.ID, f.pkt.Dst, "")
				if c.prm.DropOnReject {
					// Ablation: SCARAB-style mid-flight drop. The
					// packet evaporates at the destination and the
					// source MSHR re-issues it.
					c.drop(f.pkt, cycle)
					return true
				}
				// Qn 3/4: reserve the queue and turn the packet
				// around once its tail has arrived.
				f.rejected = true
				f.pkt.Rejected = true
				f.holder = nic.TryReserve(f.pkt)
			}
		}
		c.claimPath(f, cycle)
		if !f.rejected {
			// Flit i ejects during start+L+i; claim the port and
			// deliver the packet when the tail ejects.
			if cycle >= f.start+L && cycle <= f.start+L+n-1 {
				c.net.ClaimEject(f.pkt.Dst)
			}
			if cycle == f.start+L+n-1 {
				c.net.NICs[f.pkt.Dst].EjectFast(cycle, f.pkt)
				c.Counters.FastEjects++
				c.net.Trace.Record(cycle, trace.LaneDeliver, f.pkt.ID, f.pkt.Dst, "")
				return true
			}
			return false
		}
		// Rejected: all flits are at the destination at start+L+n-1;
		// the return trip begins the next cycle.
		if cycle == f.start+L+n-1 {
			f.state = stReturn
			f.path = routing.AppendPathYX(c.mesh, f.path[:0], f.pkt.Dst, f.prime)
			f.start = cycle + 1
		}
		return false
	case stReturn:
		c.claimPath(f, cycle)
		// The tail reaches the prime at start+L+n-1; park the packet in
		// the prime's request injection queue (§III-C4).
		if cycle == f.start+L+n-1 {
			c.park(f, cycle)
			return true
		}
		return false
	default:
		panic("fastpass: unknown flight state")
	}
}

// claimPath claims the links occupied by the flight's flits this cycle:
// flit i crosses path[cycle-start-i] when that index is in range.
func (c *Controller) claimPath(f *flight, cycle int64) {
	L := int64(len(f.path))
	for i := int64(0); i < int64(f.pkt.Len); i++ {
		p := cycle - f.start - i
		if p >= 0 && p < L {
			c.net.ClaimLink(f.path[p].ID)
		}
	}
}

// park lands a rejected FastPass-Packet in its prime's request injection
// queue, dropping injection request packets if needed to make the
// bubble. The parked packet goes to the front so the next scan
// re-selects it first; it is never itself a drop victim (Qn 2).
func (c *Controller) park(f *flight, cycle int64) {
	r := c.net.Routers[f.prime]
	q := r.VCFor(topology.Local, int(message.Request))
	if !q.CanAccept(f.pkt.Len) {
		// Dynamic bubble: evict droppable victims from the back until
		// the rejected packet fits. Droppable = a locally injected,
		// never-rejected request packet that is not mid-transmission
		// and holds no downstream claim.
		for i := q.Len() - 1; i >= 0 && !q.CanAccept(f.pkt.Len); i-- {
			e := q.EntryAt(i)
			if e.Pkt.Rejected || !e.FullyBuffered() {
				continue
			}
			var victim *message.Packet
			if i == 0 {
				victim = r.RemoveHeadPacket(topology.Local, int(message.Request))
			} else {
				victim = q.RemoveAt(i)
			}
			if victim == nil {
				continue
			}
			c.drop(victim, cycle)
		}
	}
	// The reservation holder parks at the front so the next scan
	// re-selects it first (Qn 2/Fig. 5a); other rejected packets go to
	// the back so they cannot starve it. Either way the enqueue may
	// exceed nominal capacity when every resident is itself rejected or
	// streaming: that models the dedicated return connections of Fig. 6
	// — a rejected packet is never dropped.
	if f.holder {
		r.InsertFrontOverflow(topology.Local, int(message.Request), f.pkt)
	} else {
		r.InsertOverflow(topology.Local, int(message.Request), f.pkt)
	}
	c.Counters.Parked++
	c.net.Trace.Record(cycle, trace.PacketParked, f.pkt.ID, f.prime, "")
}

// drop records a dynamic-bubble drop and schedules MSHR regeneration.
func (c *Controller) drop(victim *message.Packet, cycle int64) {
	victim.Dropped++
	c.Counters.Drops++
	c.net.Trace.Record(cycle, trace.PacketDropped, victim.ID, victim.Src, "dynamic bubble")
	if c.OnDrop != nil {
		c.OnDrop(victim)
		return
	}
	c.regenQ = append(c.regenQ, regenEntry{pkt: victim, readyAt: cycle + RegenDelay})
}

// ForEachHeld visits every packet the controller holds outside router
// buffers: packets riding lanes and drops awaiting regeneration. The
// conservation watchdog counts these as in-flight — without them a
// FastPass run would look like it was leaking packets every time a
// flight launched.
func (c *Controller) ForEachHeld(f func(*message.Packet)) {
	for _, fl := range c.flights {
		if fl != nil {
			f(fl.pkt)
		}
	}
	for _, e := range c.regenQ {
		f(e.pkt)
	}
	if c.lanes != nil {
		c.lanes.ForEachHeld(f)
	}
}
