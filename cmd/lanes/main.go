// Command lanes renders the FastPass TDM geometry for a mesh: where the
// primes sit in a phase, which partition each covers in a slot, and —
// for a chosen prime and destination row — the exact FastPass-Lane and
// returning path, proving visually that they use disjoint links (the
// paper's Figs. 1 and 4).
//
// Usage:
//
//	lanes -size 8 -phase 2 -slot 3
//	lanes -size 8 -phase 0 -slot 2 -col 1 -dstrow 6
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/fastpass"
	"repro/internal/routing"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lanes: ")
	size := flag.Int("size", 8, "mesh dimension")
	phase := flag.Int("phase", 0, "phase index (larger ones wrap)")
	slot := flag.Int("slot", 0, "slot index within the phase (larger ones wrap)")
	col := flag.Int("col", -1, "draw the lane of this prime's column (default: none)")
	dstRow := flag.Int("dstrow", -1, "destination row for the drawn lane (default: farthest)")
	flag.Parse()
	var err error
	switch {
	case *size < 2 || *size > topology.MaxSide:
		err = fmt.Errorf("-size %d: need a mesh of 2x2 to %dx%[2]d", *size, topology.MaxSide)
	case *phase < 0 || *slot < 0:
		err = fmt.Errorf("-phase %d, -slot %d: indices count from 0 (larger ones wrap)", *phase, *slot)
	case *col < -1 || *col >= *size || *dstRow < -1 || *dstRow >= *size:
		err = fmt.Errorf("-col %d, -dstrow %d: need a column and row of the %dx%d mesh, or -1", *col, *dstRow, *size, *size)
	}
	if err != nil {
		log.Print(err)
		os.Exit(2) // a rejected flag, like the flag package's own
	}

	mesh := topology.NewMesh(*size, *size)
	sched := fastpass.NewSchedule(mesh, mesh.NumPorts(), 1)
	ph := *phase % sched.H
	sl := *slot % sched.Partitions()

	fmt.Printf("%dx%d mesh — phase %d, slot %d (K = %d cycles, %d partitions)\n\n",
		*size, *size, ph, sl, sched.K, sched.Partitions())

	fmt.Print("covered:  ")
	for c := 0; c < sched.Partitions(); c++ {
		fmt.Printf("P%d→col%d  ", c, sched.Covered(c, sl))
	}
	fmt.Println()
	fmt.Println()

	// Grid of primes.
	prime := make(map[int]int) // node -> column whose prime it is
	for c := 0; c < sched.Partitions(); c++ {
		prime[sched.PrimeNode(c, ph)] = c
	}

	if *col < 0 {
		for y := 0; y < *size; y++ {
			for x := 0; x < *size; x++ {
				if c, ok := prime[mesh.ID(x, y)]; ok {
					fmt.Printf(" P%d ", c)
				} else {
					fmt.Printf("  · ")
				}
			}
			fmt.Println()
		}
		fmt.Println()
		fmt.Println("Primes sit on a shifting diagonal: no two share a row or a")
		fmt.Println("column, the §III-E requirement for collision-free lanes.")
		fmt.Println("Use -col (and -dstrow) to draw one prime's lane and return path.")
		return
	}

	c := *col
	primeNode := sched.PrimeNode(c, ph)
	covered := sched.Covered(c, sl)
	row := *dstRow
	if row < 0 {
		// Farthest row in the covered column.
		py := primeNode / *size
		if py < *size/2 {
			row = *size - 1
		} else {
			row = 0
		}
	}
	dst := mesh.ID(covered, row)

	lane := routing.AppendPathXY(mesh, nil, primeNode, dst)
	ret := routing.AppendPathYX(mesh, nil, dst, primeNode)
	onLane := map[int]bool{}
	for _, l := range lane {
		onLane[l.ID] = true
	}
	for _, l := range ret {
		if onLane[l.ID] {
			log.Fatalf("lane and return path share link %d — invariant broken!", l.ID)
		}
	}

	// Render: mark nodes on the lane (*) and on the return (o).
	mark := map[int]rune{}
	for _, l := range lane {
		mark[l.Dst] = '*'
	}
	for _, l := range ret {
		if _, ok := mark[l.Dst]; !ok {
			mark[l.Dst] = 'o'
		}
	}
	fmt.Printf("Prime P%d at node %d; lane to node %d (column %d, row %d):\n\n",
		c, primeNode, dst, covered, row)
	for y := 0; y < *size; y++ {
		for x := 0; x < *size; x++ {
			id := mesh.ID(x, y)
			switch {
			case id == primeNode:
				fmt.Printf("  P ")
			case id == dst:
				fmt.Printf("  D ")
			case mark[id] != 0:
				fmt.Printf("  %c ", mark[id])
			default:
				fmt.Printf("  · ")
			}
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Printf("lane (XY, *): %d links; return (YX, o): %d links; shared: 0 ✓\n",
		len(lane), len(ret))
}
