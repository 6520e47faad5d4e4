package topology

import (
	"errors"
	"fmt"
	"sort"
)

// ErrDisconnected is returned (wrapped) by NewIrregular when the edge
// set does not connect every node pair. Callers that degrade a healthy
// graph — the self-healing lane re-derivation removing failed channels —
// test for it with errors.Is to distinguish "cannot heal" from a
// malformed edge list.
var ErrDisconnected = errors.New("topology: graph is disconnected")

// Irregular is an arbitrary graph of routers joined by bidirectional
// channels (each channel is a pair of opposing directed links), as
// required by the paper's §III-F. Ports are assigned densely per router
// starting at 1 (port 0 remains Local).
type Irregular struct {
	n      int
	links  []Link
	out    [][]int // out[node][port] -> link index or -1
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
		// Port 0 is Local.
		t.out[v] = make([]int, len(adj[v])+1)
		for i := range t.out[v] {
			t.out[v][i] = -1
		}
		if len(adj[v])+1 > t.maxDeg {
			t.maxDeg = len(adj[v]) + 1
		}
	}
	// Assign directed links; the port on each side is the 1-based index
	// of the neighbor in the sorted adjacency list.
	portOf := func(v, nb int) Direction {
		i := sort.SearchInts(adj[v], nb)
		return Direction(i + 1)
	}
	for v := 0; v < n; v++ {
		for _, nb := range adj[v] {
			l := Link{
				ID:      len(t.links),
				Src:     v,
				Dst:     nb,
				SrcPort: portOf(v, nb),
				DstPort: portOf(nb, v),
			}
			t.links = append(t.links, l)
			t.out[v][l.SrcPort] = l.ID
		}
	}
	t.dist = allPairsBFS(n, adj)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if t.dist[a][b] < 0 {
				return nil, fmt.Errorf("%w (no path %d->%d)", ErrDisconnected, a, b)
			}
		}
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
	for a := 0; a < t.n; a++ {
		for b := 0; b < t.n; b++ {
			if t.dist[a][b] > d {
				d = t.dist[a][b]
			}
		}
	}
	return d
}

// NextHopMinimal returns the output ports of v that lie on a minimal
// path toward dst.
func (t *Irregular) NextHopMinimal(v, dst int) []Direction {
	var ports []Direction
	for p := 1; p < len(t.out[v]); p++ {
		idx := t.out[v][p]
		if idx < 0 {
			continue
		}
		nb := t.links[idx].Dst
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
// exists. The walk is returned as an ordered slice of link IDs.
func (t *Irregular) HolisticWalk() []int {
	// Hierholzer's algorithm over directed links.
	next := make([]int, t.n) // next unused out-port index per node
	used := make([]bool, len(t.links))
	takeUnused := func(v int) int {
		for ; next[v] < len(t.out[v]); next[v]++ {
			idx := t.out[v][next[v]]
			if idx >= 0 && !used[idx] {
				used[idx] = true
				next[v]++
				return idx
			}
		}
		return -1
	}
	var circuit []int
	var stackNodes []int
	var stackLinks []int
	stackNodes = append(stackNodes, 0)
	for len(stackNodes) > 0 {
		v := stackNodes[len(stackNodes)-1]
		if idx := takeUnused(v); idx >= 0 {
			stackNodes = append(stackNodes, t.links[idx].Dst)
			stackLinks = append(stackLinks, idx)
		} else {
			stackNodes = stackNodes[:len(stackNodes)-1]
			if len(stackLinks) > 0 {
				circuit = append(circuit, stackLinks[len(stackLinks)-1])
				stackLinks = stackLinks[:len(stackLinks)-1]
			}
		}
	}
	// Hierholzer emits the circuit in reverse.
	for i, j := 0, len(circuit)-1; i < j; i, j = i+1, j-1 {
		circuit[i], circuit[j] = circuit[j], circuit[i]
	}
	return circuit
}

// SegmentWalk splits a holistic walk into p contiguous, non-overlapping
// segments of near-equal length. Each segment is a set of link IDs; the
// union is all links and the intersection of any two is empty, which is
// exactly the property FastPass needs to derive lanes on irregular
// topologies.
func SegmentWalk(walk []int, p int) [][]int {
	if p < 1 {
		p = 1
	}
	if p > len(walk) {
		p = len(walk)
	}
	segs := make([][]int, p)
	base := len(walk) / p
	extra := len(walk) % p
	pos := 0
	for i := 0; i < p; i++ {
		n := base
		if i < extra {
			n++
		}
		segs[i] = append([]int(nil), walk[pos:pos+n]...)
		pos += n
	}
	return segs
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
