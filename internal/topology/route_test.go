package topology_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

func TestIrregularNextHopMinimal(t *testing.T) {
	g := topology.MustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	ports := routing.RouteGraph(g, nil, 0, 2)
	if len(ports) != 2 {
		t.Fatalf("ring node 0 -> 2 should have two minimal next hops, got %v", ports)
	}
	for _, p := range ports {
		l := g.OutLink(0, p)
		if l == nil {
			t.Fatalf("port %v not connected", p)
		}
		if g.Distance(l.Dst, 2) != g.Distance(0, 2)-1 {
			t.Errorf("port %v is not productive", p)
		}
	}
}

// TestRouteGraphMatchesReference holds routing.RouteGraph to the
// brute-force minimal next hops of the old NewIrregular on 200
// degree-capped random graphs and a 4×4 torus, for every node pair.
func TestRouteGraphMatchesReference(t *testing.T) {
	type fabric struct {
		n     int
		edges [][2]int
	}
	rng := rand.New(rand.NewSource(42))
	var fabrics []fabric
	for range 200 {
		n := 1 + rng.Intn(16)
		fabrics = append(fabrics, fabric{n, topology.RandomEdges(rng, n, rng.Intn(2*n+1))})
	}
	torus := fabric{n: 16}
	for v := range 16 {
		x, y := v%4, v/4
		torus.edges = append(torus.edges, [2]int{v, y*4 + (x+1)%4}, [2]int{v, (y+1)%4*4 + x})
	}
	for i, f := range append(fabrics, torus) {
		ref, err := topology.NewIrregular(f.n, f.edges)
		if err != nil {
			t.Fatalf("fabric %d: %v", i, err)
		}
		g := topology.MustGraph(t, f.n, f.edges)
		for a := range f.n {
			for b := range f.n {
				if got, want := routing.RouteGraph(g, nil, a, b), ref.NextHopMinimal(a, b); !slices.Equal(got, want) {
					t.Fatalf("fabric %d %d->%d: ports %v, reference %v", i, a, b, got, want)
				}
			}
		}
	}
}
