// Package drain implements the DRAIN baseline [Parasar et al.,
// HPCA'20]: packets route fully adaptively and the network periodically
// enters a drain window during which buffered packets are rotated in
// lock-step along a fixed closed walk over the mesh. The synchronized
// rotation breaks any cyclic buffer dependency without detection —
// at the price of misrouting every resident packet, which is what blows
// up DRAIN's tail latency in Fig. 12.
//
// Modelling note: the closed walk is the row-serpentine order. Its
// single wrap edge (bottom-left corner back to the origin) is not a
// physical mesh link; the real system's holistic path walks back up
// column 0. The rotation treats the wrap as one step, which slightly
// shortens drain-mode travel for the one packet crossing it per step and
// changes nothing about deadlock freedom or the misrouting signature.
package drain

import (
	"cmp"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Params tunes DRAIN.
type Params struct {
	// Period between drain windows (64K cycles in Table II). Each
	// window lasts one full loop of the serpentine: W×H rotation steps.
	Period int64
}

// Config returns the DRAIN router configuration (6 VNs, fully adaptive;
// Table II notes DRAIN can run with fewer VNs only by adding buffers).
func Config(vcs int) router.Config {
	return router.TableII(vcs, true, routing.FullyAdaptive, routing.FullyAdaptive)
}

// Controller runs the periodic drains.
type Controller struct {
	prm   Params
	order []int // serpentine node order

	// victims and occupied are rotate's scratch, sized at Attach and
	// reused every rotation step so drain windows stay off the
	// allocator (the alloc-guard contract covers drain cycles too).
	victims  []victim
	occupied []int

	// Draining reports whether a drain window is active (diagnostics).
	Draining bool
	// Rotations counts packets force-moved during drains.
	Rotations int64
	// Windows counts drain windows entered.
	Windows int64
}

// Attach installs a DRAIN controller.
func Attach(n *network.Network, prm Params) *Controller {
	n.Mesh.RequireMesh("drain")
	prm.Period = cmp.Or(prm.Period, 65536)
	c := &Controller{prm: prm}
	c.order = serpentine(n.Mesh)
	c.victims, c.occupied = make([]victim, len(c.order)), make([]int, 0, len(c.order))
	n.Controller = c
	return c
}

// serpentine returns the boustrophedon node order: row 0 left-to-right,
// row 1 right-to-left, and so on — consecutive entries are mesh
// neighbours.
func serpentine(m *topology.Mesh) []int {
	order := make([]int, 0, m.NumNodes())
	for y := 0; y < m.H; y++ {
		if y%2 == 0 {
			for x := 0; x < m.W; x++ {
				order = append(order, m.ID(x, y))
			}
		} else {
			for x := m.W - 1; x >= 0; x-- {
				order = append(order, m.ID(x, y))
			}
		}
	}
	return order
}

// Name implements network.Controller.
func (c *Controller) Name() string { return "DRAIN" }

// PostCycle implements network.Controller.
func (c *Controller) PostCycle(*network.Network) {}

// PreCycle implements network.Controller.
func (c *Controller) PreCycle(n *network.Network) {
	cycle := n.Cycle()
	phase := cycle % c.prm.Period
	if cycle >= c.prm.Period && phase < int64(len(c.order)) {
		if phase == 0 {
			c.Windows++
			n.Trace.Record(cycle, trace.RecoveryAction, 0, -1, "drain window opens")
		}
		c.Draining = true
		c.rotate(n)
		return
	}
	c.Draining = false
}

// victim identifies one rotatable packet per node: a fully-buffered head
// of any network VC. A nil pkt marks an empty slot.
type victim struct {
	port topology.Direction
	vc   int
	pkt  *message.Packet
}

// rotate performs one lock-step rotation along the serpentine: every
// selected packet moves into the slot freed at the next node.
func (c *Controller) rotate(n *network.Network) {
	victims := c.victims // indexed by serpentine position
	for i, node := range c.order {
		victims[i] = victim{}
		r := n.Routers[node]
		for p, v := range r.OccupiedVCs(topology.North) {
			if e := r.VCFor(p, v).Head(); e.FullyBuffered() {
				victims[i] = victim{port: p, vc: v, pkt: e.Pkt}
				break
			}
		}
	}
	// Rotate the victims' packets among the victim slots in serpentine
	// order: every freed slot is refilled, so no upstream credit state
	// changes and no packet is ever lost. In a dense deadlock victims
	// sit on adjacent nodes and each packet moves one hop; with sparse
	// victims a packet advances to the next participating node (the
	// real holistic path would walk it there over several drain steps —
	// the compression only shortens drain-mode travel time).
	occupied := c.occupied[:0] // serpentine positions with victims
	for i, vic := range victims {
		if vic.pkt == nil {
			continue
		}
		occupied = append(occupied, i)
		r := n.Routers[c.order[i]]
		if got := r.RemoveHeadPacketNoCredit(vic.port, vic.vc); got != vic.pkt {
			panic("drain: victim vanished between selection and removal")
		}
	}
	c.occupied = occupied
	if len(occupied) < 2 {
		// A single victim just goes back where it was: rotation needs
		// at least two participants.
		for _, i := range occupied {
			vic := victims[i]
			r := n.Routers[c.order[i]]
			if !r.InsertPacket(vic.port, vic.vc, vic.pkt) {
				panic("drain: reinsertion of lone victim failed")
			}
		}
		return
	}
	nodes := len(occupied)
	for j, i := range occupied {
		vic := victims[i]
		src := victims[occupied[(j+nodes-1)%nodes]]
		r := n.Routers[c.order[i]]
		if !r.InsertPacket(vic.port, vic.vc, src.pkt) {
			panic("drain: refill of freshly emptied slot failed")
		}
		src.pkt.Hops += n.Mesh.Distance(c.order[occupied[(j+nodes-1)%nodes]], c.order[i])
		c.Rotations++
	}
}
