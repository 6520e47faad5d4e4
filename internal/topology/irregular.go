package topology

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrDisconnected is returned (wrapped) by NewIrregular when the edge
// set does not connect every node pair; errors.Is tells it apart from a
// malformed edge list.
var ErrDisconnected = errors.New("topology: graph is disconnected")

// Irregular is an arbitrary graph of routers joined by bidirectional
// channels (each channel is a pair of opposing directed links), as
// required by the paper's §III-F. Ports are assigned densely per router
// starting at 1 (port 0 remains Local).
type Irregular struct {
	n      int
	links  []Link
	out    [][]int // out[node][port] -> link index; -1 at Local, every other port is wired
	dist   [][]int
	maxDeg int
}

// NewIrregular builds an irregular topology over n nodes from a list of
// undirected edges. Duplicate and self edges are rejected, and the graph
// must be connected.
func NewIrregular(n int, edges [][2]int) (*Irregular, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: need at least one node, got %d", n)
	}
	seen := make(map[[2]int]bool)
	adj := make([][]int, n)
	for _, e := range edges {
		a, b := e[0], e[1]
		if a == b {
			return nil, fmt.Errorf("topology: self edge on node %d", a)
		}
		if a < 0 || b < 0 || a >= n || b >= n {
			return nil, fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", a, b, n)
		}
		key := [2]int{min(a, b), max(a, b)}
		if seen[key] {
			return nil, fmt.Errorf("topology: duplicate edge (%d,%d)", a, b)
		}
		seen[key] = true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	t := &Irregular{n: n, out: make([][]int, n)}
	for v := range adj {
		sort.Ints(adj[v])
		t.out[v] = make([]int, len(adj[v])+1)
		t.out[v][Local] = -1
		t.maxDeg = max(t.maxDeg, len(adj[v])+1)
	}
	// Assign directed links; the port on each side is the 1-based index
	// of the neighbor in the sorted adjacency list.
	portOf := func(v, nb int) Direction {
		i := sort.SearchInts(adj[v], nb)
		return Direction(i + 1)
	}
	for v := 0; v < n; v++ {
		for _, nb := range adj[v] {
			l := Link{ID: len(t.links), Src: v, Dst: nb, SrcPort: portOf(v, nb), DstPort: portOf(nb, v)}
			t.links = append(t.links, l)
			t.out[v][l.SrcPort] = l.ID
		}
	}
	t.dist = allPairsBFS(n, adj)
	if b := slices.Index(t.dist[0], -1); b >= 0 {
		return nil, fmt.Errorf("%w (no path 0->%d)", ErrDisconnected, b)
	}
	return t, nil
}

func allPairsBFS(n int, adj [][]int) [][]int {
	dist := make([][]int, n)
	for s := 0; s < n; s++ {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, nb := range adj[v] {
				if d[nb] < 0 {
					d[nb] = d[v] + 1
					queue = append(queue, nb)
				}
			}
		}
		dist[s] = d
	}
	return dist
}

// NumNodes reports the number of routers.
func (t *Irregular) NumNodes() int { return t.n }

// NumPorts reports the most ports any router has, including Local.
func (t *Irregular) NumPorts() int { return t.maxDeg }

// Links returns every directed link, indexed by Link.ID.
func (t *Irregular) Links() []Link { return t.links }

// Diameter reports the maximum minimal hop count over all node pairs.
func (t *Irregular) Diameter() int {
	d := 0
	for _, row := range t.dist {
		d = max(d, slices.Max(row))
	}
	return d
}

// NextHopMinimal returns the output ports of v that lie on a minimal
// path toward dst.
func (t *Irregular) NextHopMinimal(v, dst int) []Direction {
	var ports []Direction
	for p := 1; p < len(t.out[v]); p++ {
		nb := t.links[t.out[v][p]].Dst
		if t.dist[nb][dst] == t.dist[v][dst]-1 {
			ports = append(ports, Direction(p))
		}
	}
	return ports
}

// HolisticWalk returns a closed walk that traverses every directed link
// exactly once, starting from node 0 — the "holistic path" FastPass
// borrows from DRAIN to derive partitions on irregular topologies
// (§III-F). Because every channel is bidirectional, every node has equal
// in- and out-degree, so an Eulerian circuit over directed links always
// exists. Nodes are left by port, i.e. by ascending neighbour ID.
func (t *Irregular) HolisticWalk() []int {
	var w Walker
	for v := range t.out {
		for _, id := range t.out[v][1:] { // port 0 is Local
			w.Add(id)
		}
		w.EndNode()
	}
	walk, _ := w.Walk(t.links, 0)
	return walk
}

// Walker derives holistic walks with Hierholzer's algorithm in O(nodes
// + links). The graph is given node by node: Add appends the current
// node's out-links in preference order, EndNode moves to the next node.
// Walker keeps its buffers, so a walk on a graph no larger than the
// last allocates nothing. The zero value is ready to use.
type Walker struct {
	ends  []int // node v's out-links are out[ends[v-1]:ends[v]] (from 0 for v == 0)
	out   []int // link IDs, node by node
	next  []int // per node: the index in out of its first untaken out-link
	trail []int // the open trail from the start node, link IDs
	walk  []int
}

// Add appends link to the current node's out-links.
func (w *Walker) Add(link int) { w.out = append(w.out, link) }

// EndNode closes the current node; the next Add starts the next node.
func (w *Walker) EndNode() { w.ends = append(w.ends, len(w.out)) }

// Walk consumes the graph and returns the closed walk from node start
// that crosses every link reachable from it once, leaving each node by
// its first untaken out-link. Every node needs equal in- and out-degree
// (true of bidirectional channels). connected reports whether every
// node has an out-link and the walk crosses them all: on bidirectional
// channels, whether the graph is connected. The walk is the Walker's
// buffer, overwritten by the next Walk.
func (w *Walker) Walk(links []Link, start int) (walk []int, connected bool) {
	connected = true
	w.next = slices.Grow(w.next[:0], len(w.ends))
	from := 0
	for _, end := range w.ends {
		connected = connected && end > from
		w.next = append(w.next, from)
		from = end
	}
	w.trail, w.walk = slices.Grow(w.trail[:0], len(w.out)), slices.Grow(w.walk[:0], len(w.out))
	for v := start; ; {
		if w.next[v] < w.ends[v] {
			id := w.out[w.next[v]]
			w.next[v]++
			w.trail = append(w.trail, id)
			v = links[id].Dst
			continue
		}
		if len(w.trail) == 0 {
			break
		}
		id := w.trail[len(w.trail)-1]
		w.trail = w.trail[:len(w.trail)-1]
		w.walk = append(w.walk, id) // Hierholzer emits the circuit in reverse
		v = links[id].Src
	}
	slices.Reverse(w.walk)
	connected = connected && len(w.walk) == len(w.out)
	w.ends, w.out = w.ends[:0], w.out[:0]
	return w.walk, connected
}

// SegmentWalk splits a holistic walk into p contiguous, non-overlapping
// segments of near-equal length. Each segment is a set of link IDs; the
// union is all links and the intersection of any two is empty, which is
// exactly the property FastPass needs to derive lanes on irregular
// topologies.
func SegmentWalk(walk []int, p int) [][]int {
	p = min(max(p, 1), len(walk))
	segs := make([][]int, p)
	for i, pos := 0, 0; i < p; i++ {
		n := len(walk) / p
		if i < len(walk)%p {
			n++
		}
		segs[i] = append([]int(nil), walk[pos:pos+n]...)
		pos += n
	}
	return segs
}
