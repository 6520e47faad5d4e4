package topology

import (
	"errors"
	"fmt"
	"slices"
)

// ErrDisconnected is returned (wrapped) by NewGraph when the edge set
// does not connect every node pair; errors.Is tells it apart from a
// malformed edge list.
var ErrDisconnected = errors.New("topology: graph is disconnected")

// NewGraph builds a Mesh over n routers joined by the undirected edges,
// each a bidirectional channel (two opposing directed links), as the
// paper's §III-F requires. A node's ports are 1..degree, by ascending
// neighbour ID, and link IDs run node by node in port order. The routers
// are the mesh's 5-port routers, so a node has at most four neighbours.
// Self, duplicate and out-of-range edges are rejected, and the graph
// must be connected.
func NewGraph(n int, edges [][2]int) (*Mesh, error) {
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
	for v := range adj {
		if len(adj[v]) >= int(NumMeshPorts) {
			return nil, fmt.Errorf("topology: node %d has %d neighbours, a 5-port router at most %d", v, len(adj[v]), NumMeshPorts-1)
		}
		slices.Sort(adj[v])
	}
	m := &Mesh{W: n, H: 1, out: make([][NumMeshPorts]int, n), hops: make([]int32, n*n)}
	for v := range m.out {
		m.out[v] = [NumMeshPorts]int{-1, -1, -1, -1, -1}
	}
	for v, nbs := range adj {
		for i, nb := range nbs {
			back, _ := slices.BinarySearch(adj[nb], v)
			l := Link{ID: len(m.links), Src: v, Dst: nb, SrcPort: Direction(i + 1), DstPort: Direction(back + 1)}
			m.links = append(m.links, l)
			m.out[v][l.SrcPort] = l.ID
		}
	}
	// Breadth-first from every node fills the hop-count table.
	queue := make([]int, 0, n)
	for s := range n {
		row := m.hops[s*n : (s+1)*n]
		queue = append(queue[:0], s)
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			for _, nb := range adj[v] {
				if row[nb] == 0 && nb != s { // not reached yet
					row[nb] = row[v] + 1
					queue = append(queue, nb)
				}
			}
		}
		if len(queue) < n {
			return nil, fmt.Errorf("%w (node %d reaches %d of %d nodes)", ErrDisconnected, s, len(queue), n)
		}
	}
	return m, nil
}

// walkPorts is the order a node offers its out-links to a holistic
// walk: by ascending neighbour ID — North, West, East, South on the
// row-major mesh (DESIGN.md §15.2), port order on a graph.
var walkPorts = [2][4]Direction{{North, West, East, South}, {1, 2, 3, 4}}

// HolisticWalk derives, with w, the closed walk from node 0 that crosses
// every directed link of m once — the "holistic path" FastPass borrows
// from DRAIN to derive lanes on any topology (§III-F). A channel is left
// out when dead (nil: none is) marks either of its links, so the walk of
// a degraded fabric stays balanced. connected reports whether the walk
// crosses every surviving link of every node: whether the surviving
// channels connect the fabric. The walk is w's buffer (see Walker.Walk).
func (m *Mesh) HolisticWalk(w *Walker, dead []bool) (walk []int, connected bool) {
	order := &walkPorts[0]
	if m.IsGraph() {
		order = &walkPorts[1]
	}
	for node := range m.NumNodes() {
		for _, p := range order {
			out := m.OutLink(node, p)
			if out != nil && (dead == nil || !dead[out.ID] && !dead[m.InLink(node, p).ID]) {
				w.Add(out.ID)
			}
		}
		w.EndNode()
	}
	return w.Walk(m.links, 0)
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
