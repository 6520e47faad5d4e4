package topology

import (
	"fmt"
	"slices"
	"sort"
)

// The irregular topology as it stood before NewGraph put the §III-F
// fabric on the mesh's own type, kept verbatim as the lockstep
// reference for NewGraph and HolisticWalk.

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
