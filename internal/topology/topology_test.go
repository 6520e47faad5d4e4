package topology

import (
	"math/rand"
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
	if _, err := NewIrregular(0, nil); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := NewIrregular(2, [][2]int{{0, 0}}); err == nil {
		t.Error("self edge should fail")
	}
	if _, err := NewIrregular(2, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge should fail")
	}
	if _, err := NewIrregular(2, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range edge should fail")
	}
	if _, err := NewIrregular(3, [][2]int{{0, 1}}); err == nil {
		t.Error("disconnected graph should fail")
	}
}

func TestIrregularBasics(t *testing.T) {
	// A 4-node ring with one chord.
	g, err := NewIrregular(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if got := len(g.Links()); got != 10 {
		t.Errorf("links = %d, want 10 (5 channels × 2)", got)
	}
	if d := g.dist[1][3]; d != 2 {
		t.Errorf("dist[1][3] = %d, want 2", d)
	}
	if d := g.Diameter(); d != 2 {
		t.Errorf("Diameter = %d, want 2", d)
	}
	var nbs []int
	for _, idx := range g.out[0][1:] {
		if idx >= 0 {
			nbs = append(nbs, g.links[idx].Dst)
		}
	}
	if len(nbs) != 3 {
		t.Errorf("neighbours of 0 = %v, want 3 entries", nbs)
	}
}

func TestIrregularNextHopMinimal(t *testing.T) {
	g, err := NewIrregular(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ports := g.NextHopMinimal(0, 2)
	if len(ports) != 2 {
		t.Fatalf("ring node 0 -> 2 should have two minimal next hops, got %v", ports)
	}
	for _, p := range ports {
		idx := g.out[0][p]
		if idx < 0 {
			t.Fatalf("port %v not connected", p)
		}
		if g.dist[g.links[idx].Dst][2] != g.dist[0][2]-1 {
			t.Errorf("port %v is not productive", p)
		}
	}
}

func TestHolisticWalkCoversEveryLinkOnce(t *testing.T) {
	tops := []*Irregular{
		mustIrregular(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		mustIrregular(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}),
		mustIrregular(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}}),
	}
	for ti, g := range tops {
		walk := g.HolisticWalk()
		if len(walk) != len(g.Links()) {
			t.Errorf("top %d: walk covers %d links, want %d", ti, len(walk), len(g.Links()))
			continue
		}
		seen := make(map[int]bool)
		for _, id := range walk {
			if seen[id] {
				t.Errorf("top %d: link %d visited twice", ti, id)
			}
			seen[id] = true
		}
		// The walk must be contiguous: each link starts where the
		// previous ended, and it closes back on the start node.
		for i := 1; i < len(walk); i++ {
			if g.Links()[walk[i]].Src != g.Links()[walk[i-1]].Dst {
				t.Errorf("top %d: walk breaks at step %d", ti, i)
			}
		}
		if g.Links()[walk[0]].Src != g.Links()[walk[len(walk)-1]].Dst {
			t.Errorf("top %d: walk is not closed", ti)
		}
	}
}

func TestSegmentWalkPartitions(t *testing.T) {
	g := mustIrregular(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	walk := g.HolisticWalk()
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
		// Random spanning tree plus random extra edges.
		var edges [][2]int
		have := make(map[[2]int]bool)
		addEdge := func(a, b int) {
			if a == b {
				return
			}
			k := [2]int{min(a, b), max(a, b)}
			if have[k] {
				return
			}
			have[k] = true
			edges = append(edges, [2]int{a, b})
		}
		for v := 1; v < n; v++ {
			addEdge(v, rng.Intn(v))
		}
		for e := 0; e < n/2; e++ {
			addEdge(rng.Intn(n), rng.Intn(n))
		}
		g, err := NewIrregular(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		walk := g.HolisticWalk()
		if len(walk) != len(g.Links()) {
			t.Fatalf("trial %d: walk %d links, want %d", trial, len(walk), len(g.Links()))
		}
		for i := 1; i < len(walk); i++ {
			if g.Links()[walk[i]].Src != g.Links()[walk[i-1]].Dst {
				t.Fatalf("trial %d: discontinuous walk", trial)
			}
		}
	}
}

func mustIrregular(t *testing.T, n int, edges [][2]int) *Irregular {
	t.Helper()
	g, err := NewIrregular(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestInLinkMirrorsOutLink: the link entering a node on a port is exactly
// the link whose DstPort is that port — for every link of the mesh — and
// edge ports have none.
func TestInLinkMirrorsOutLink(t *testing.T) {
	m := NewMesh(4, 3)
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
