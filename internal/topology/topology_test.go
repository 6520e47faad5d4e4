package topology

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDirectionOpposite(t *testing.T) {
	cases := map[Direction]Direction{
		North: South, South: North, East: West, West: East, Local: Local,
	}
	for d, want := range cases {
		if got := d.Opposite(); got != want {
			t.Errorf("%v.Opposite() = %v, want %v", d, got, want)
		}
	}
}

func TestDirectionString(t *testing.T) {
	for d, want := range map[Direction]string{
		Local: "Local", North: "North", East: "East", South: "South", West: "West",
		Direction(9): "Port(9)",
	} {
		if got := d.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(d), got, want)
		}
	}
}

func TestMeshIDXYRoundTrip(t *testing.T) {
	m := NewMesh(5, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 5; x++ {
			id := m.ID(x, y)
			gx, gy := m.XY(id)
			if gx != x || gy != y {
				t.Fatalf("XY(ID(%d,%d)) = (%d,%d)", x, y, gx, gy)
			}
		}
	}
}

func TestMeshLinkCount(t *testing.T) {
	// A W×H mesh has 2*(W-1)*H + 2*W*(H-1) directed links.
	for _, tc := range []struct{ w, h int }{{1, 1}, {2, 2}, {3, 3}, {8, 8}, {4, 7}} {
		m := NewMesh(tc.w, tc.h)
		want := 2*(tc.w-1)*tc.h + 2*tc.w*(tc.h-1)
		if got := len(m.Links()); got != want {
			t.Errorf("mesh %dx%d: %d links, want %d", tc.w, tc.h, got, want)
		}
	}
}

func TestMeshOutLink(t *testing.T) {
	m := NewMesh(3, 3)
	center := m.ID(1, 1)
	for _, d := range []Direction{North, East, South, West} {
		l := m.OutLink(center, d)
		if l == nil {
			t.Fatalf("center node missing %v link", d)
		}
		if l.Src != center {
			t.Errorf("%v link src = %d, want %d", d, l.Src, center)
		}
		if l.DstPort != d.Opposite() {
			t.Errorf("%v link dst port = %v, want %v", d, l.DstPort, d.Opposite())
		}
	}
	// Edges: the top-left corner has no North or West link, and Local
	// is never a link.
	corner := m.ID(0, 0)
	if m.OutLink(corner, North) != nil || m.OutLink(corner, West) != nil {
		t.Error("corner node should have no North/West links")
	}
	if m.OutLink(corner, Local) != nil {
		t.Error("Local must not map to a link")
	}
}

func TestMeshDistanceAndDiameter(t *testing.T) {
	m := NewMesh(8, 8)
	if d := m.Distance(m.ID(0, 0), m.ID(7, 7)); d != 14 {
		t.Errorf("corner distance = %d, want 14", d)
	}
	if d := m.Diameter(); d != 14 {
		t.Errorf("diameter = %d, want 14", d)
	}
	if d := m.Distance(5, 5); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

func TestMeshPortToward(t *testing.T) {
	m := NewMesh(4, 4)
	src := m.ID(1, 1)
	cases := []struct {
		dst  int
		want []Direction
	}{
		{m.ID(3, 1), []Direction{East}},
		{m.ID(0, 1), []Direction{West}},
		{m.ID(1, 3), []Direction{South}},
		{m.ID(1, 0), []Direction{North}},
		{m.ID(3, 3), []Direction{East, South}},
		{m.ID(0, 0), []Direction{West, North}},
		{src, nil},
	}
	for _, tc := range cases {
		got := m.AppendPortToward(nil, src, tc.dst)
		if len(got) != len(tc.want) {
			t.Errorf("AppendPortToward(%d,%d) = %v, want %v", src, tc.dst, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("AppendPortToward(%d,%d) = %v, want %v", src, tc.dst, got, tc.want)
			}
		}
	}
}

func TestMeshPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMesh(0, 3) should panic")
		}
	}()
	NewMesh(0, 3)
}

// Property: following AppendPortToward greedily always reaches the destination
// in exactly Distance hops.
func TestMeshMinimalRoutingProperty(t *testing.T) {
	m := NewMesh(8, 8)
	f := func(a, b uint8) bool {
		src := int(a) % m.NumNodes()
		dst := int(b) % m.NumNodes()
		cur := src
		hops := 0
		for cur != dst {
			ports := m.AppendPortToward(nil, cur, dst)
			if len(ports) == 0 {
				return false
			}
			l := m.OutLink(cur, ports[hops%len(ports)])
			if l == nil {
				return false
			}
			cur = l.Dst
			hops++
			if hops > 100 {
				return false
			}
		}
		return hops == m.Distance(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIrregularValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"zero nodes", 0, nil},
		{"self edge", 2, [][2]int{{0, 0}}},
		{"duplicate edge", 2, [][2]int{{0, 1}, {1, 0}}},
		{"out-of-range edge", 2, [][2]int{{0, 5}}},
		{"disconnected graph", 3, [][2]int{{0, 1}}},
		{"fifth neighbour", 6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}},
	} {
		if g, err := NewGraph(tc.n, tc.edges); err == nil || g != nil {
			t.Errorf("%s: NewGraph = %v, %v; want an error and no topology", tc.name, g, err)
		}
	}
	star, err := NewGraph(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatalf("four neighbours refused: %v", err)
	}
	if !star.IsGraph() || NewMesh(5, 1).IsGraph() {
		t.Error("IsGraph does not tell a graph from a mesh")
	}
}

func TestIrregularBasics(t *testing.T) {
	// A 4-node ring with one chord.
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if g.NumNodes() != 4 || g.NumPorts() != int(NumMeshPorts) {
		t.Errorf("NumNodes = %d, NumPorts = %d", g.NumNodes(), g.NumPorts())
	}
	if got := len(g.Links()); got != 10 {
		t.Errorf("links = %d, want 10 (5 channels × 2)", got)
	}
	if d := g.Distance(1, 3); d != 2 {
		t.Errorf("Distance(1, 3) = %d, want 2", d)
	}
	if d := g.Diameter(); d != 2 {
		t.Errorf("Diameter = %d, want 2", d)
	}
	var nbs []int
	for p := North; p < NumMeshPorts; p++ {
		if l := g.OutLink(0, p); l != nil {
			nbs = append(nbs, l.Dst)
		}
	}
	if !slices.Equal(nbs, []int{1, 2, 3}) {
		t.Errorf("neighbours of 0 by port = %v, want [1 2 3]", nbs)
	}
}

// TestGraphMatchesIrregularReference holds NewGraph to NewIrregular on
// degree-capped random graphs: the same links with the same ports, the
// same holistic walk, distances and diameter. (Its minimal next hops
// are routing.RouteGraph's, which TestRouteGraphMatchesReference holds
// to the same reference.)
func TestGraphMatchesIrregularReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var w Walker
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		edges := randomEdges(rng, n, rng.Intn(2*n+1))
		ref, err := NewIrregular(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g := mustGraph(t, n, edges)
		if !slices.Equal(g.Links(), ref.Links()) {
			t.Fatalf("trial %d: links\n%v\nreference\n%v", trial, g.Links(), ref.Links())
		}
		// A lone node has no out-link, which the Walker reads as cut off.
		walk, connected := g.HolisticWalk(&w, nil)
		if want := ref.HolisticWalk(); connected != (n > 1) || !slices.Equal(walk, want) {
			t.Fatalf("trial %d: walk %v (connected %v), reference %v", trial, walk, connected, want)
		}
		if g.Diameter() != ref.Diameter() {
			t.Fatalf("trial %d: diameter %d, reference %d", trial, g.Diameter(), ref.Diameter())
		}
		for a := range n {
			for b := range n {
				if g.Distance(a, b) != ref.dist[a][b] {
					t.Fatalf("trial %d %d->%d: distance %d, reference %d", trial, a, b, g.Distance(a, b), ref.dist[a][b])
				}
			}
		}
	}
}

// randomEdges is a random spanning tree over n nodes plus up to extra
// random edges, no node given a fifth neighbour.
func randomEdges(rng *rand.Rand, n, extra int) [][2]int {
	var edges [][2]int
	have := make(map[[2]int]bool)
	deg := make([]int, n)
	addEdge := func(a, b int) {
		k := [2]int{min(a, b), max(a, b)}
		if a == b || have[k] || deg[a] == 4 || deg[b] == 4 {
			return
		}
		have[k] = true
		deg[a]++
		deg[b]++
		edges = append(edges, [2]int{a, b})
	}
	for v := 1; v < n; v++ {
		// Attach to a random earlier node with room; node v-1 always has
		// some, the tree built so far being a path at worst.
		u := rng.Intn(v)
		for deg[u] == 4 {
			u = (u + 1) % v
		}
		addEdge(v, u)
	}
	for range extra {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	return edges
}

func TestHolisticWalkCoversEveryLinkOnce(t *testing.T) {
	tops := []*Mesh{
		mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}),
		mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}}),
		NewMesh(4, 3),
	}
	for _, g := range tops {
		checkWalk(t, g)
	}
}

func TestSegmentWalkPartitions(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	var w Walker
	walk, _ := g.HolisticWalk(&w, nil)
	for _, p := range []int{1, 2, 3, 4, len(walk), len(walk) + 5, 0} {
		segs := SegmentWalk(walk, p)
		seen := make(map[int]bool)
		total := 0
		for _, s := range segs {
			total += len(s)
			for _, id := range s {
				if seen[id] {
					t.Fatalf("p=%d: link %d in two segments", p, id)
				}
				seen[id] = true
			}
		}
		if total != len(walk) {
			t.Errorf("p=%d: segments cover %d links, want %d", p, total, len(walk))
		}
	}
}

// Property: random connected graphs always yield a valid Eulerian
// holistic walk.
func TestHolisticWalkRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(10)
		checkWalk(t, mustGraph(t, n, randomEdges(rng, n, n/2)))
	}
}

func mustGraph(t *testing.T, n int, edges [][2]int) *Mesh {
	t.Helper()
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestInLinkMirrorsOutLink: the link entering a node on a port is exactly
// the link whose DstPort is that port — for every link of the mesh — and
// edge ports have none.
func TestInLinkMirrorsOutLink(t *testing.T) {
	for _, m := range []*Mesh{NewMesh(4, 3), mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})} {
		checkInLinks(t, m)
	}
}

func checkInLinks(t *testing.T, m *Mesh) {
	t.Helper()
	seen := 0
	for node := 0; node < m.NumNodes(); node++ {
		for d := Local; d < NumMeshPorts; d++ {
			in := m.InLink(node, d)
			if (in == nil) != (m.OutLink(node, d) == nil) {
				t.Fatalf("node %d port %v: InLink and OutLink disagree on connectivity", node, d)
			}
			if in == nil {
				continue
			}
			seen++
			if in.Dst != node || in.DstPort != d {
				t.Errorf("InLink(%d, %v) = link %d arriving at node %d port %v", node, d, in.ID, in.Dst, in.DstPort)
			}
		}
	}
	if seen != len(m.Links()) {
		t.Errorf("InLink reached %d links, mesh has %d", seen, len(m.Links()))
	}
}
