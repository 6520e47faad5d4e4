package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func walk(t *testing.T, m *topology.Mesh, f Func, src, dst int, pick func(i int, ports []topology.Direction) topology.Direction) int {
	t.Helper()
	cur := src
	hops := 0
	for cur != dst {
		ports := f(m, nil, cur, dst)
		if len(ports) == 0 {
			t.Fatalf("no route at node %d toward %d", cur, dst)
		}
		l := m.OutLink(cur, pick(hops, ports))
		if l == nil {
			t.Fatalf("route points off-mesh at node %d", cur)
		}
		cur = l.Dst
		hops++
		if hops > m.NumNodes()*2 {
			t.Fatalf("route %d->%d does not terminate", src, dst)
		}
	}
	return hops
}

func first(_ int, ports []topology.Direction) topology.Direction { return ports[0] }

func TestAllAlgorithmsAreMinimal(t *testing.T) {
	m := topology.NewMesh(8, 8)
	algs := []Algorithm{XY, YX, WestFirst, FullyAdaptive}
	for _, a := range algs {
		f := ForAlgorithm(a)
		for _, pair := range [][2]int{{0, 63}, {63, 0}, {7, 56}, {56, 7}, {27, 27}, {12, 44}} {
			src, dst := pair[0], pair[1]
			if src == dst {
				if got := f(m, nil, src, dst); len(got) != 0 {
					t.Errorf("%v: route at destination = %v, want empty", a, got)
				}
				continue
			}
			hops := walk(t, m, f, src, dst, first)
			if hops != m.Distance(src, dst) {
				t.Errorf("%v: %d->%d took %d hops, want %d", a, src, dst, hops, m.Distance(src, dst))
			}
		}
	}
}

func TestXYOrdersDimensions(t *testing.T) {
	m := topology.NewMesh(4, 4)
	// From (0,0) to (2,2): XY must go East first, YX South first.
	src, dst := m.ID(0, 0), m.ID(2, 2)
	if got := RouteXY(m, nil, src, dst); got[0] != topology.East {
		t.Errorf("XY first hop = %v, want East", got[0])
	}
	if got := RouteYX(m, nil, src, dst); got[0] != topology.South {
		t.Errorf("YX first hop = %v, want South", got[0])
	}
}

func TestWestFirstForcesWest(t *testing.T) {
	m := topology.NewMesh(4, 4)
	src, dst := m.ID(3, 0), m.ID(0, 3) // must go West and South
	got := RouteWestFirst(m, nil, src, dst)
	if len(got) != 1 || got[0] != topology.West {
		t.Errorf("WestFirst with westward traffic = %v, want [West]", got)
	}
	// Once no westward component remains, adaptivity opens up.
	src2 := m.ID(0, 0)
	got2 := RouteWestFirst(m, nil, src2, dst)
	if len(got2) != 1 || got2[0] != topology.South {
		t.Errorf("WestFirst due-south = %v, want [South]", got2)
	}
	got3 := RouteWestFirst(m, nil, src2, m.ID(2, 2))
	if len(got3) != 2 {
		t.Errorf("WestFirst east+south should be adaptive, got %v", got3)
	}
}

// The West-first turn model forbids any turn *into* West: a packet
// travelling North/South/East never subsequently returns West.
func TestWestFirstNoIllegalTurns(t *testing.T) {
	m := topology.NewMesh(6, 6)
	f := RouteWestFirst
	for src := 0; src < m.NumNodes(); src++ {
		for dst := 0; dst < m.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			cur := src
			wentNonWest := false
			for cur != dst {
				ports := f(m, nil, cur, dst)
				d := ports[len(ports)-1] // worst-case adaptive choice
				if d != topology.West {
					wentNonWest = true
				} else if wentNonWest {
					t.Fatalf("illegal turn into West on %d->%d at %d", src, dst, cur)
				}
				cur = m.OutLink(cur, d).Dst
			}
		}
	}
}

func TestFullyAdaptiveOffersAllProductive(t *testing.T) {
	m := topology.NewMesh(4, 4)
	got := RouteFullyAdaptive(m, nil, m.ID(1, 1), m.ID(3, 3))
	if len(got) != 2 {
		t.Fatalf("diagonal destination should offer 2 ports, got %v", got)
	}
}

func TestPathXYAndYXAreDisjointOffEndpoints(t *testing.T) {
	// This is the geometric heart of the FastPass returning-path
	// argument: the XY path A->B and the YX path B->A share no directed
	// link (they use opposite directions of the same channels).
	m := topology.NewMesh(8, 8)
	f := func(a, b uint8) bool {
		src := int(a) % 64
		dst := int(b) % 64
		if src == dst {
			return true
		}
		lane := AppendPathXY(m, nil, src, dst)
		ret := AppendPathYX(m, nil, dst, src)
		used := make(map[int]bool)
		for _, l := range lane {
			used[l.ID] = true
		}
		for _, l := range ret {
			if used[l.ID] {
				return false
			}
		}
		return len(lane) == m.Distance(src, dst) && len(ret) == len(lane)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	for a, want := range map[Algorithm]string{
		XY: "XY", YX: "YX", WestFirst: "WestFirst", FullyAdaptive: "FullyAdaptive", Algorithm(99): "Unknown",
	} {
		if got := a.String(); got != want {
			t.Errorf("String(%d) = %q want %q", a, got, want)
		}
	}
}

func TestForAlgorithmPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ForAlgorithm(Algorithm(99))
}
