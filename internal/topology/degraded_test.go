package topology

import (
	"errors"
	"testing"
)

// gridEdges returns the undirected channel list of a W×H mesh (the
// edge set NewMesh wires, expressed for NewGraph).
func gridEdges(w, h int) [][2]int {
	var edges [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				edges = append(edges, [2]int{id, id + 1})
			}
			if y+1 < h {
				edges = append(edges, [2]int{id, id + w})
			}
		}
	}
	return edges
}

// checkWalk asserts the §III-F properties the lane derivation rests on:
// the walk is a closed chain crossing every directed link exactly once
// and therefore visiting every node.
func checkWalk(t *testing.T, g *Mesh) []int {
	t.Helper()
	var w Walker
	walk, connected := g.HolisticWalk(&w, nil)
	links := g.Links()
	if !connected || len(walk) != len(links) {
		t.Fatalf("walk covers %d of %d directed links", len(walk), len(links))
	}
	used := make([]bool, len(links))
	visited := make([]bool, g.NumNodes())
	for i, id := range walk {
		if used[id] {
			t.Fatalf("walk repeats link %d", id)
		}
		used[id] = true
		next := walk[(i+1)%len(walk)]
		if links[id].Dst != links[next].Src {
			t.Fatalf("walk breaks at position %d: link %d ends at %d, link %d starts at %d",
				i, id, links[id].Dst, next, links[next].Src)
		}
		visited[links[id].Src] = true
		visited[links[id].Dst] = true
	}
	for node, ok := range visited {
		if !ok {
			t.Fatalf("walk never visits node %d", node)
		}
	}
	return walk
}

// TestHolisticWalkOnDegradedMeshes is the healing property test: for
// every single-channel removal of a 4×4 and an 8×8 mesh (all of which
// stay connected — a mesh with W,H ≥ 2 is 2-edge-connected), the lane
// derivation must succeed, the walk must cover all surviving links and
// nodes, and the segmentation must partition the walk.
func TestHolisticWalkOnDegradedMeshes(t *testing.T) {
	for _, dim := range [][2]int{{4, 4}, {8, 8}} {
		w, h := dim[0], dim[1]
		edges := gridEdges(w, h)
		for drop := range edges {
			degraded := make([][2]int, 0, len(edges)-1)
			degraded = append(degraded, edges[:drop]...)
			degraded = append(degraded, edges[drop+1:]...)
			g, err := NewGraph(w*h, degraded)
			if err != nil {
				t.Fatalf("%dx%d minus edge %v: %v", w, h, edges[drop], err)
			}
			walk := checkWalk(t, g)
			segs := SegmentWalk(walk, w)
			seen := make(map[int]bool)
			total := 0
			for _, seg := range segs {
				for _, id := range seg {
					if seen[id] {
						t.Fatalf("%dx%d minus edge %v: link %d in two segments", w, h, edges[drop], id)
					}
					seen[id] = true
				}
				total += len(seg)
			}
			if total != len(walk) {
				t.Fatalf("%dx%d minus edge %v: segments cover %d of %d walk links",
					w, h, edges[drop], total, len(walk))
			}
		}
	}
}

// TestNewIrregularDisconnectedTyped: cutting a node off must yield the
// typed sentinel (errors.Is-able), never a panic.
func TestNewIrregularDisconnectedTyped(t *testing.T) {
	edges := gridEdges(4, 4)
	// Remove both channels of corner node 0: (0,1) and (0,4).
	var cut [][2]int
	for _, e := range edges {
		if e[0] == 0 || e[1] == 0 {
			continue
		}
		cut = append(cut, e)
	}
	g, err := NewGraph(16, cut)
	if err == nil {
		t.Fatal("isolating a node should fail")
	}
	if g != nil {
		t.Fatal("error return carried a topology")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want errors.Is(_, ErrDisconnected)", err)
	}
	// A malformed edge list is a different failure, not ErrDisconnected.
	if _, err := NewGraph(4, [][2]int{{0, 1}, {1, 1}, {2, 3}}); errors.Is(err, ErrDisconnected) {
		t.Fatalf("self-edge misreported as disconnection: %v", err)
	}
}
