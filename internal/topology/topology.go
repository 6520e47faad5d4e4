// Package topology models the physical structure of a network-on-chip:
// nodes (routers), directed links between them, and the port geometry of
// each router. It provides the 2-D mesh used throughout the paper's
// evaluation and, for the §III-F extension, any connected graph of the
// same 5-port routers.
package topology

import (
	"fmt"
	"slices"

	"repro/internal/spare"
)

// Direction identifies a router port. Port 0 is always the local
// (injection/ejection) port; the four mesh directions follow.
type Direction int

// Mesh port numbering. A graph uses ports 1..4 as opaque channel
// indices.
const (
	Local Direction = iota
	North
	East
	South
	West
	NumMeshPorts // 5
)

var directionNames = [NumMeshPorts]string{"Local", "North", "East", "South", "West"}

// String returns the conventional short name of a mesh direction.
func (d Direction) String() string {
	if d < Local || d >= NumMeshPorts {
		return fmt.Sprintf("Port(%d)", int(d))
	}
	return directionNames[d]
}

// Opposite returns the direction a flit arrives from when it was sent
// toward d: a flit sent East arrives on the downstream router's West port.
func (d Direction) Opposite() Direction {
	if d < Local || d >= NumMeshPorts {
		return d
	}
	return opposites[d]
}

var opposites = [NumMeshPorts]Direction{Local, South, West, North, East}

// Link is one directed channel between two routers. A bidirectional
// channel between routers A and B is represented by two Links.
type Link struct {
	// ID is the dense index of this link within its topology.
	ID int
	// Src and Dst are node IDs.
	Src, Dst int
	// SrcPort is the output port on Src; DstPort the input port on Dst.
	SrcPort, DstPort Direction
}

// Mesh is a W×H 2-D mesh. Node IDs are row-major: id = y*W + x, with x
// growing East and y growing South (row 0 is the top row, matching the
// paper's figures). NewGraph builds a Mesh over any connected graph of
// n routers instead, with W = n and H = 1 (see IsGraph).
type Mesh struct {
	W, H  int
	links []Link
	// out[node][port] is the index into links, or -1.
	out [][NumMeshPorts]int
	// hops[a·n+b] is a graph's minimal hop count from a to b; nil on a
	// mesh, whose distances follow from coordinates.
	hops []int32
}

// MaxSide bounds the mesh side a user asks for (sim.Options, lanes).
// Channels' int32 node IDs cap a side at 46,340, but memory runs out
// long before: a 256×256 build holds 160 MB at FastPass's defaults and
// 1.1 GB at ten VCs a VN. 256 is twice the largest mesh planned, 128×128.
const MaxSide = 256

// NewMesh constructs a W×H mesh. Both dimensions must be at least 1.
func NewMesh(w, h int) *Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", w, h))
	}
	m := &Mesh{W: w, H: h}
	m.links = spareLinks.Take(2 * ((w-1)*h + w*(h-1)))[:0]
	m.out = sparePorts.Take(w * h)
	for n := range m.out {
		m.out[n] = [NumMeshPorts]int{-1, -1, -1, -1, -1}
	}
	add := func(src, dst int, sp Direction) {
		l := Link{ID: len(m.links), Src: src, Dst: dst, SrcPort: sp, DstPort: sp.Opposite()}
		m.links = append(m.links, l)
		m.out[src][sp] = l.ID
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n := m.ID(x, y)
			if x+1 < w {
				add(n, m.ID(x+1, y), East)
				add(m.ID(x+1, y), n, West)
			}
			if y+1 < h {
				add(n, m.ID(x, y+1), South)
				add(m.ID(x, y+1), n, North)
			}
		}
	}
	return m
}

// The stores NewMesh takes its arrays from and Release returns them to.
// Meshes are not shared between runs: every build makes its own.
var (
	spareLinks spare.Store[Link]
	sparePorts spare.Store[[NumMeshPorts]int]
)

// Release hands the mesh's arrays to a later NewMesh in the process.
// Nothing may use m, or a Link it returned, afterwards.
func (m *Mesh) Release() {
	spareLinks.Put(m.links)
	sparePorts.Put(m.out)
	*m = Mesh{}
}

// ID returns the node ID at coordinates (x, y).
func (m *Mesh) ID(x, y int) int { return y*m.W + x }

// XY returns the coordinates of node id.
func (m *Mesh) XY(id int) (x, y int) { return id % m.W, id / m.W }

// NumNodes reports the number of routers.
func (m *Mesh) NumNodes() int { return m.W * m.H }

// NumPorts reports the number of ports per router, including Local.
func (m *Mesh) NumPorts() int { return int(NumMeshPorts) }

// Links returns every directed link, indexed by Link.ID.
func (m *Mesh) Links() []Link { return m.links }

// OutLink returns the directed link leaving node through port, or nil.
func (m *Mesh) OutLink(node int, port Direction) *Link {
	if port <= Local || int(port) >= len(m.out[node]) {
		return nil
	}
	idx := m.out[node][port]
	if idx < 0 {
		return nil
	}
	return &m.links[idx]
}

// InLink returns the directed link arriving at node on port, or nil when
// that port is unconnected — the mirror of OutLink: the link entering on
// port is the one the neighbour behind it sends back over the same
// channel.
func (m *Mesh) InLink(node int, port Direction) *Link {
	out := m.OutLink(node, port)
	if out == nil {
		return nil
	}
	return m.OutLink(out.Dst, out.DstPort)
}

// IsGraph reports whether NewGraph built m: it has no mesh geometry.
func (m *Mesh) IsGraph() bool { return m.hops != nil }

// RequireMesh panics, naming who, when m is a graph — the build-time
// refusal of code that needs mesh coordinates.
func (m *Mesh) RequireMesh(who string) {
	if m.IsGraph() {
		panic(fmt.Sprintf("topology: %s needs a 2-D mesh, not a graph", who))
	}
}

// Distance reports the minimal hop count between two nodes.
func (m *Mesh) Distance(a, b int) int {
	if m.hops != nil {
		return int(m.hops[a*m.W+b])
	}
	ax, ay := m.XY(a)
	bx, by := m.XY(b)
	return max(ax-bx, bx-ax) + max(ay-by, by-ay)
}

// Diameter reports the maximum Distance over all node pairs.
func (m *Mesh) Diameter() int {
	if m.hops != nil {
		return int(slices.Max(m.hops))
	}
	return (m.W - 1) + (m.H - 1)
}

// AppendPortToward appends to buf the productive output ports for a
// minimal route on a 2-D mesh from cur to dst, in XY preference order
// (East/West before North/South); it appends none when cur == dst. It
// allocates nothing when buf has capacity. A graph has no coordinates:
// routing.RouteGraph routes it by Distance.
func (m *Mesh) AppendPortToward(buf []Direction, cur, dst int) []Direction {
	cx, cy := m.XY(cur)
	dx, dy := m.XY(dst)
	if dx > cx {
		buf = append(buf, East)
	} else if dx < cx {
		buf = append(buf, West)
	}
	if dy > cy {
		buf = append(buf, South)
	} else if dy < cy {
		buf = append(buf, North)
	}
	return buf
}
