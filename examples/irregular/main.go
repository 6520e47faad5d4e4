// Irregular: demonstrate §III-F — FastPass on an arbitrary (non-mesh)
// topology. A holistic walk that traverses every directed link exactly
// once is derived (Hierholzer over the bidirectional channel graph, the
// same construction DRAIN uses), then segmented into non-overlapping
// link sets that FastPass can use as partitions: each segment becomes a
// FastPass-Lane schedule with no link shared between concurrent lanes.
//
// The live run builds the network directly, because sim builds meshes
// only: the same routers and links on a topology.NewGraph fabric, with
// fastpass.AttachWalk's lanes circulating on the walk.
package main

import (
	"fmt"
	"log"

	"repro/internal/fastpass"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)

	// An irregular 9-node fabric: a ring with chords and a pendant
	// cluster — nothing like a mesh.
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, // outer ring
		{0, 3}, {1, 4}, // chords
		{2, 6}, {6, 7}, {7, 8}, {8, 6}, // pendant triangle
	}
	g, err := topology.NewGraph(9, edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("irregular topology: %d nodes, %d directed links, diameter %d\n",
		g.NumNodes(), len(g.Links()), g.Diameter())

	walk, _ := g.HolisticWalk(&topology.Walker{}, nil)
	fmt.Printf("holistic walk: %d steps (every directed link exactly once)\n", len(walk))

	for _, p := range []int{2, 3, 4} {
		segs := topology.SegmentWalk(walk, p)
		fmt.Printf("\n%d partitions:\n", p)
		used := map[int]int{}
		for i, seg := range segs {
			fmt.Printf("  lane %d: %d links:", i, len(seg))
			for _, id := range seg {
				l := g.Links()[id]
				fmt.Printf(" %d→%d", l.Src, l.Dst)
				if owner, clash := used[id]; clash {
					log.Fatalf("link %d shared by lanes %d and %d", id, owner, i)
				}
				used[id] = i
			}
			fmt.Println()
		}
		if len(used) != len(g.Links()) {
			log.Fatalf("partitions cover %d of %d links", len(used), len(g.Links()))
		}
		fmt.Printf("  ✓ non-overlapping, and together they cover all %d links\n", len(g.Links()))
	}

	fmt.Println()
	fmt.Println("Each segment is an isolated FastPass-Lane: a prime router that")
	fmt.Println("owns a segment can forward one promoted packet per slot along it")
	fmt.Println("with zero collision risk — exactly the property the mesh version")
	fmt.Println("gets from its column partitions and diagonal primes.")

	// Now run the real thing: a ring fabric whose one-directional
	// traffic deadlocks plain adaptive routing, rescued by circulating
	// FastPass lanes riding the holistic walk.
	fmt.Println()
	fmt.Println("Live run — 8-node ring, sustained one-directional traffic:")
	load := func(n *network.Network) int {
		total := 0
		id := uint64(0)
		for round := 0; round < 150; round++ {
			for s := 0; s < 8; s++ {
				id++
				ln := 1
				if id%2 == 0 {
					ln = 5
				}
				n.NICs[s].EnqueueSource(message.NewPacket(id, s, (s+3)%8, message.Request, ln, 0))
				total++
			}
		}
		return total
	}
	ringEdges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}}
	ringNet := func() *network.Network {
		r, err := topology.NewGraph(8, ringEdges)
		if err != nil {
			log.Fatal(err)
		}
		return network.New(network.Params{Mesh: r, Router: fastpass.Config(1), EjectCap: 4})
	}

	bare := ringNet()
	bareDone := 0
	for _, nc := range bare.NICs {
		nc.OnEject = func(*message.Packet) { bareDone++ }
	}
	bareTotal := load(bare)
	bare.Run(120000)
	fmt.Printf("  bare adaptive routing: %d of %d delivered after 120k cycles", bareDone, bareTotal)
	if bareDone < bareTotal {
		fmt.Println(" — deadlocked")
	} else {
		fmt.Println()
	}

	fp := ringNet()
	lanes := fastpass.AttachWalk(fp)
	fpDone := 0
	for _, nc := range fp.NICs {
		nc.OnEject = func(*message.Packet) { fpDone++ }
	}
	fpTotal := load(fp)
	var cycles int64
	for fpDone < fpTotal && cycles < 600000 {
		fp.Run(1000)
		cycles += 1000
	}
	fmt.Printf("  with circulating lanes: %d of %d delivered in %dk cycles (%d promotions)\n",
		fpDone, fpTotal, cycles/1000, lanes.Counters.Promoted)
}
