// Package routing provides the routing functions used by the schemes
// under evaluation: deterministic XY and YX (used by FastPass-Lanes and
// their returning paths), the West-first turn model (EscapeVC's escape
// channel and TFC), and fully-adaptive minimal routing (used by SWAP,
// SPIN, DRAIN, Pitstop and FastPass's regular pass, per Table II).
//
// A routing function returns the set of *productive* output ports a head
// flit may request at the current router, in preference order. All
// functions here are minimal: they never return a port that increases
// distance to the destination, so misrouting can only be introduced
// deliberately by scheme controllers (SWAP, DRAIN).
package routing

import (
	"repro/internal/topology"
)

// Algorithm names a routing function.
type Algorithm int

// Supported algorithms.
const (
	XY Algorithm = iota
	YX
	WestFirst
	FullyAdaptive
)

var algorithmNames = [...]string{"XY", "YX", "WestFirst", "FullyAdaptive"}

// String returns the algorithm name.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algorithmNames) {
		return "Unknown"
	}
	return algorithmNames[a]
}

// Func computes candidate output ports for a packet at node cur heading
// to dst, appending them to buf (which may be nil). The result is in
// preference order; an empty result means the packet has arrived (eject
// via Local). Passing a reusable buffer keeps the router's allocation
// path clean.
type Func func(m *topology.Mesh, buf []topology.Direction, cur, dst int) []topology.Direction

// ForAlgorithm returns the Func implementing a.
func ForAlgorithm(a Algorithm) Func {
	switch a {
	case XY:
		return RouteXY
	case YX:
		return RouteYX
	case WestFirst:
		return RouteWestFirst
	case FullyAdaptive:
		return RouteFullyAdaptive
	default:
		panic("routing: unknown algorithm")
	}
}

// RouteXY is dimension-ordered X-then-Y routing: deadlock-free, used by
// FastPass-Lanes (prime → destination).
func RouteXY(m *topology.Mesh, buf []topology.Direction, cur, dst int) []topology.Direction {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	switch {
	case dx > cx:
		return append(buf, topology.East)
	case dx < cx:
		return append(buf, topology.West)
	case dy > cy:
		return append(buf, topology.South)
	case dy < cy:
		return append(buf, topology.North)
	default:
		return buf
	}
}

// RouteYX is dimension-ordered Y-then-X routing, used by the FastPass
// returning paths (destination → prime), which makes them link-disjoint
// from the XY lanes (§III-E).
func RouteYX(m *topology.Mesh, buf []topology.Direction, cur, dst int) []topology.Direction {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	switch {
	case dy > cy:
		return append(buf, topology.South)
	case dy < cy:
		return append(buf, topology.North)
	case dx > cx:
		return append(buf, topology.East)
	case dx < cx:
		return append(buf, topology.West)
	default:
		return buf
	}
}

// RouteWestFirst implements the West-first turn model: if the packet
// must travel West it does so first (no other choice); otherwise it may
// route adaptively among the remaining productive directions. Minimal
// and deadlock-free on a mesh.
func RouteWestFirst(m *topology.Mesh, buf []topology.Direction, cur, dst int) []topology.Direction {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	if dx < cx {
		// All westward hops must be taken first.
		return append(buf, topology.West)
	}
	if dx > cx {
		buf = append(buf, topology.East)
	}
	if dy > cy {
		buf = append(buf, topology.South)
	} else if dy < cy {
		buf = append(buf, topology.North)
	}
	return buf
}

// RouteFullyAdaptive returns every productive direction. It permits all
// turns, so cyclic channel dependencies — and therefore network-level
// deadlock — are possible; the schemes that use it rely on their own
// recovery/avoidance mechanisms (Table II).
func RouteFullyAdaptive(m *topology.Mesh, buf []topology.Direction, cur, dst int) []topology.Direction {
	return m.AppendPortToward(buf, cur, dst)
}

// AppendPathXY appends the XY path from src to dst to links and returns
// it: FastPass lane trajectories. Passing a reusable buffer (typically
// links[:0] of a prior path) keeps per-launch lane computation
// allocation-free.
func AppendPathXY(m *topology.Mesh, links []*topology.Link, src, dst int) []*topology.Link {
	return appendPath(m, links, src, dst, false)
}

// AppendPathYX appends the YX path from src to dst to links and returns
// it (returning paths).
func AppendPathYX(m *topology.Mesh, links []*topology.Link, src, dst int) []*topology.Link {
	return appendPath(m, links, src, dst, true)
}

// appendPath walks the dimension-ordered route. The two routing
// functions are called directly, not through a Func value: an indirect
// call would force the port scratch onto the heap on every call.
func appendPath(m *topology.Mesh, links []*topology.Link, src, dst int, yFirst bool) []*topology.Link {
	var buf [2]topology.Direction
	cur := src
	for cur != dst {
		var ports []topology.Direction
		if yFirst {
			ports = RouteYX(m, buf[:0], cur, dst)
		} else {
			ports = RouteXY(m, buf[:0], cur, dst)
		}
		l := m.OutLink(cur, ports[0])
		if l == nil {
			panic("routing: minimal route fell off the mesh")
		}
		links = append(links, l)
		cur = l.Dst
	}
	return links
}
