package fastpass

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// refHealedWalk is the heal derivation as it stood before it ran on the
// mesh itself, kept as the lockstep reference: an N² table from (src,
// dst) to mesh link ID, the surviving channels as an edge list, a
// throwaway graph whose constructor decides connectivity, and its
// holistic walk mapped back through the table. The throwaway graph is
// a topology.NewGraph, which TestGraphMatchesIrregularReference holds to
// the old NewIrregular link for link and walk for walk.
func refHealedWalk(mesh *topology.Mesh, deadLink []bool) (walk []int, ok bool) {
	links := mesh.Links()
	nn := mesh.NumNodes()
	rev := make([]int, nn*nn)
	for i := range rev {
		rev[i] = -1
	}
	for i := range links {
		rev[links[i].Src*nn+links[i].Dst] = links[i].ID
	}
	var edges [][2]int
	for i := range links {
		l := &links[i]
		if l.Src >= l.Dst {
			continue
		}
		back := rev[l.Dst*nn+l.Src]
		if deadLink[l.ID] || (back >= 0 && deadLink[back]) {
			continue
		}
		edges = append(edges, [2]int{l.Src, l.Dst})
	}
	ir, err := topology.NewGraph(nn, edges)
	if err != nil {
		return nil, false
	}
	iw, _ := ir.HolisticWalk(&topology.Walker{}, nil)
	walk = make([]int, len(iw))
	for i, id := range iw {
		il := ir.Links()[id]
		walk[i] = rev[il.Src*nn+il.Dst]
	}
	return walk, true
}

// healingController is a FastPass-healing controller on a w×h mesh with
// every link alive, and an injector (no faults) to hand rederive.
func healingController(w, h int) (*Controller, *faults.Injector) {
	mesh := topology.NewMesh(w, h)
	c := Attach(network.New(network.Params{Mesh: mesh, Router: Config(2), EjectCap: 4}), Params{Healing: true})
	c.deadLink = make([]bool, len(mesh.Links()))
	return c, faults.NewInjector(faults.Plan{}, len(mesh.Links()), mesh.NumNodes(), mesh.NumPorts(), 1)
}

// healingCuts lists the dead-link sets the lockstep test derives on: no
// cut, every single directed link, every node cut off, and random
// multi-link cuts — many of which disconnect the fabric.
func healingCuts(nLinks int, mesh *topology.Mesh, rng *rand.Rand, random int) [][]int {
	cuts := [][]int{nil}
	for id := 0; id < nLinks; id++ {
		cuts = append(cuts, []int{id})
	}
	for node := range mesh.NumNodes() {
		var cut []int
		for _, l := range mesh.Links() {
			if l.Src == node {
				cut = append(cut, l.ID)
			}
		}
		cuts = append(cuts, cut)
	}
	for range random {
		cuts = append(cuts, rng.Perm(nLinks)[:2+rng.Intn(nLinks/3+1)])
	}
	return cuts
}

// TestHealingWalkMatchesIrregularReference steps rederive against
// refHealedWalk on every cut healingCuts lists, on square, wide and
// tall meshes: the same installed walk link for link, the same
// heal-fail verdict, and on success a closed chain using every
// surviving directed link exactly once.
func TestHealingWalkMatchesIrregularReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fails := 0
	for _, dim := range [][2]int{{2, 2}, {3, 3}, {4, 4}, {5, 3}, {3, 6}, {6, 4}, {8, 8}} {
		c, inj := healingController(dim[0], dim[1])
		links := c.mesh.Links()
		for _, cut := range healingCuts(len(links), c.mesh, rng, 300) {
			clear(c.deadLink)
			for _, id := range cut {
				c.deadLink[id] = true
			}
			name := fmt.Sprintf("%dx%d cut %v", dim[0], dim[1], cut)
			want, wantOK := refHealedWalk(c.mesh, c.deadLink)
			c.rederive(inj)
			if c.healFailed == wantOK {
				t.Fatalf("%s: heal failed %v, reference connected %v", name, c.healFailed, wantOK)
			}
			if !wantOK {
				fails++
				continue
			}
			got := c.lanes.walk
			if !slices.Equal(got, want) {
				t.Fatalf("%s: walk\n%v\nreference\n%v", name, got, want)
			}
			surviving := 0
			for _, l := range links {
				if alive(c, l) {
					surviving++
				}
			}
			seen := make([]bool, len(links))
			for i, id := range got {
				if next := got[(i+1)%len(got)]; seen[id] || !alive(c, links[id]) || links[id].Dst != links[next].Src {
					t.Fatalf("%s: walk position %d: link %d repeats, is dead or does not lead to link %d", name, i, id, next)
				}
				seen[id] = true
			}
			if len(got) != surviving {
				t.Fatalf("%s: walk crosses %d of %d surviving links", name, len(got), surviving)
			}
		}
	}
	if fails == 0 {
		t.Fatal("no cut disconnected the fabric: the heal-fail verdict went unchecked")
	}
}

// alive reports whether both directions of l's channel survive.
func alive(c *Controller, l topology.Link) bool {
	return !c.deadLink[l.ID] && !c.deadLink[c.mesh.OutLink(l.Dst, l.DstPort).ID]
}

// TestRederiveAllocBudget: once the first heal has sized the walker and
// the lanes, every later heal reuses their buffers — the same small
// allocation count at 8×8 as at 32×32.
func TestRederiveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var got []float64
	for _, n := range []int{8, 32} {
		c, inj := healingController(n, n)
		c.deadLink[0] = true
		allocs := testing.AllocsPerRun(5, func() { c.rederive(inj) })
		if c.Counters.Heals == 0 {
			t.Fatalf("%dx%d: cutting one channel failed the heal", n, n)
		}
		if allocs > 2 {
			t.Errorf("%dx%d: a repeated heal allocates %.0f times, want ≤ 2", n, n, allocs)
		}
		got = append(got, allocs)
	}
	if got[0] != got[1] {
		t.Errorf("a repeated heal allocates %v times at 8x8 and 32x32: grows with the mesh", got)
	}
}

// BenchmarkHealingRederive is one heal — derive the walk over a mesh
// with one channel cut and install the lanes — per mesh size.
func BenchmarkHealingRederive(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			c, inj := healingController(n, n)
			c.deadLink[0] = true
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				c.rederive(inj)
			}
		})
	}
}

// restoreSpoiled installs lanes lanes over the closed walk fabric builds
// from seq, lets spoil corrupt the engine, encodes it and restores the
// blob into a fresh engine over the same fabric. It returns the
// restore's error; a panic fails the test.
func restoreSpoiled(t *testing.T, nodes int, seq []int, lanes int, spoil func(*WalkLanes)) (err error) {
	t.Helper()
	_, w, walk := fabric(t, nodes, seq, 4)
	w.Install(walk, lanes)
	spoil(w)
	wr := snapshot.NewWriter()
	w.state(wr.State())
	_, fresh, _ := fabric(t, nodes, seq, 4)
	r := snapshot.NewReader(wr.Bytes())
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("restore panicked: %v", p)
		}
	}()
	fresh.state(r.State())
	return r.Err()
}

// ring16 is a 16-node ring: room for two lanes.
var ring16 = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

func TestRestoreRejectsHealedLanePosition(t *testing.T) {
	if err := restoreSpoiled(t, 16, ring16, 2, func(*WalkLanes) {}); err != nil {
		t.Fatalf("clean engine refused: %v", err)
	}
	for name, spoil := range map[string]func(*WalkLanes){
		"past the walk": func(w *WalkLanes) { w.pos[0], w.pos[1] = 99, 107 },
		"negative":      func(w *WalkLanes) { w.pos[0] = -1 },
		"bunched":       func(w *WalkLanes) { w.pos[1] = w.pos[0] + 1 },
	} {
		if err := restoreSpoiled(t, 16, ring16, 2, spoil); err == nil {
			t.Errorf("%s lane head restored", name)
		}
	}
}

func TestRestoreRejectsHealedScanCursor(t *testing.T) {
	for _, ptr := range []int{-1, 1, 1 << 40} {
		err := restoreSpoiled(t, 16, ring16, 2, func(w *WalkLanes) { w.lanes[1].scanPtr = ptr })
		if err == nil {
			t.Errorf("scan cursor %d restored over one network buffer", ptr)
		}
	}
}

// A walk crossing one link twice would let two lanes claim it at once.
// Over links 0→1, 1→0, 0→1, 1→0 the walk 0,1,0,1 is a closed chain
// that only the distinct-links rule refuses.
func TestRestoreRejectsRepeatedWalkLink(t *testing.T) {
	if err := restoreSpoiled(t, 2, []int{0, 1, 0, 1}, 1, func(*WalkLanes) {}); err != nil {
		t.Fatalf("clean engine refused: %v", err)
	}
	err := restoreSpoiled(t, 2, []int{0, 1, 0, 1}, 1, func(w *WalkLanes) { w.walk = []int{0, 1, 0, 1} })
	if err == nil {
		t.Fatal("walk crossing links 0 and 1 twice restored")
	}
}
