package invariant

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/message"
	"repro/internal/topology"
)

// This file is the watchdog's cold path: once progress has stalled or a
// packet has starved past its bound, the run is over — the job now is
// to say *why*. extractWaitsFor rebuilds the waits-for graph from live
// router state: each buffered head packet that holds a VC and has not
// been granted an output waits on every (port, vc) its routing relation
// allows; an edge runs from the resource it occupies to each claimed
// resource it wants. A cycle in that graph is a deadlock by definition
// — each member holds what the next one needs. Allocation here is fine;
// nothing hot survives a trip.

// waitingHead is one unallocated head packet and the resource it sits
// on, collected during graph extraction for the report.
type waitingHead struct {
	pkt  *message.Packet
	node int
	port topology.Direction
	vc   int
}

// tripStall classifies a stall: Deadlock when the waits-for graph has a
// cycle, Starvation when identifiable packets are blocked past bounds,
// ProgressStall otherwise (e.g. fault-wedged hardware with every head
// already allocated).
func (w *Watchdog) tripStall(cycle int64, fromProgress bool) {
	edges, heads := w.extractWaitsFor()
	if loop := findCycle(edges, len(w.allocMark)); loop != nil {
		w.record(w.deadlockViolation(cycle, loop, heads))
		return
	}
	starved := w.collectStarved(cycle)
	if len(starved) > 0 {
		w.record(w.starvationViolation(cycle, starved))
		return
	}
	if fromProgress {
		w.record(Violation{
			Kind:  ProgressStall,
			Cycle: cycle,
			Report: fmt.Sprintf(
				"invariant: no global progress for %d cycles at cycle %d with %d packets outstanding, and no waits-for cycle found (wedged hardware?)",
				cycle-w.lastProgressCycle, cycle, len(w.live)),
			Packets: slices.Sorted(maps.Keys(w.live)),
		})
	}
}

// extractWaitsFor builds the resource waits-for graph. edges[rid] lists
// the resources the head at rid is waiting for, in deterministic
// (router, port, vc, candidate) order; heads[rid] describes the waiting
// packet.
func (w *Watchdog) extractWaitsFor() (edges [][]int32, heads []*waitingHead) {
	n := w.net
	edges = make([][]int32, len(w.allocMark))
	heads = make([]*waitingHead, len(w.allocMark))
	for _, r := range n.Routers {
		for port, vci := range r.OccupiedVCs(topology.Local) {
			e := r.VCFor(port, vci).Head()
			if e.Allocated {
				continue
			}
			src := w.rid(r.ID, port, vci)
			heads[src] = &waitingHead{pkt: e.Pkt, node: r.ID, port: port, vc: vci}
			r.ForEachCandidate(e.Pkt, func(p topology.Direction, gvc int) {
				link := r.OutLinkID(p)
				if link < 0 || r.DownstreamVCFree(p, gvc) {
					// Ejection candidates have no downstream VC;
					// free VCs are not waited on.
					return
				}
				lk := n.ChannelLink(link)
				edges[src] = append(edges[src], int32(w.rid(lk.Dst, lk.DstPort, gvc)))
			})
		}
	}
	return edges, heads
}

// findCycle runs an iterative DFS over the waits-for graph from every
// resource in ascending order and returns the first cycle found (as the
// rid sequence around the loop), or nil.
func findCycle(edges [][]int32, nres int) []int {
	const (
		white = 0 // unvisited
		grey  = 1 // on stack
		black = 2 // done
	)
	color := make([]byte, nres)
	type frame struct {
		rid  int
		next int
	}
	var stack []frame
	for start := 0; start < nres; start++ {
		if color[start] != white || len(edges[start]) == 0 {
			continue
		}
		stack = stack[:0]
		color[start] = grey
		stack = append(stack, frame{rid: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= len(edges[f.rid]) {
				color[f.rid] = black
				stack = stack[:len(stack)-1]
				continue
			}
			to := int(edges[f.rid][f.next])
			f.next++
			switch color[to] {
			case white:
				color[to] = grey
				stack = append(stack, frame{rid: to})
			case grey:
				// Back edge: the loop is the stack suffix from `to`.
				for i, fr := range stack {
					if fr.rid == to {
						loop := make([]int, 0, len(stack)-i)
						for _, fr2 := range stack[i:] {
							loop = append(loop, fr2.rid)
						}
						return loop
					}
				}
			}
		}
	}
	return nil
}

// deadlockViolation renders the structured deadlock report. The format
// is golden-tested — change testdata alongside any edit here.
func (w *Watchdog) deadlockViolation(cycle int64, loop []int, heads []*waitingHead) Violation {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: deadlock detected at cycle %d\n", cycle)
	if w.sampEnq > 0 {
		fmt.Fprintf(&b, "delivered at trip: %d of %d enqueued packets (%.4f)\n",
			w.sampCons, w.sampEnq, float64(w.sampCons)/float64(w.sampEnq))
	}
	fmt.Fprintf(&b, "waits-for cycle of %d resources:\n", len(loop))
	var ids []uint64
	for i, rid := range loop {
		next := loop[(i+1)%len(loop)]
		node, port, vc := w.decodeRid(rid)
		fmt.Fprintf(&b, "  [%d] router %d port %v vc %d", i, node, port, vc)
		if h := heads[rid]; h != nil {
			p := h.pkt
			fmt.Fprintf(&b, ": packet %d (%v %d->%d, age %d)", p.ID, p.Class, p.Src, p.Dst, cycle-p.CreateTime)
			ids = append(ids, p.ID)
		} else {
			b.WriteString(": held in transit")
		}
		nnode, nport, nvc := w.decodeRid(next)
		fmt.Fprintf(&b, " waits for router %d port %v vc %d\n", nnode, nport, nvc)
	}
	fmt.Fprintf(&b, "each resource holds what the next needs; no member can ever advance")
	slices.Sort(ids)
	return Violation{Kind: Deadlock, Cycle: cycle, Report: b.String(), Packets: ids}
}

func (w *Watchdog) decodeRid(rid int) (node int, port topology.Direction, vc int) {
	vc = rid % w.resStep
	rid /= w.resStep
	return rid / w.numPorts, topology.Direction(rid % w.numPorts), vc
}

// collectStarved gathers every packet blocked past StarveBound: heads
// (and their queue followers) of router VCs that have not moved, and
// ejection queues whose consumer will not drain them.
func (w *Watchdog) collectStarved(cycle int64) []*message.Packet {
	w.starved = w.starved[:0]
	n := w.net
	for _, r := range n.Routers {
		for p, v := range r.OccupiedVCs(topology.Local) {
			vcq := r.VCFor(p, v)
			if cycle-vcq.Head().LastMove <= w.opts.StarveBound {
				continue
			}
			// The head starves everything queued behind it.
			for i := 0; i < vcq.Len(); i++ {
				w.starved = append(w.starved, vcq.EntryAt(i).Pkt)
			}
		}
	}
	for _, nc := range n.NICs {
		for c := message.Class(0); c < message.NumClasses; c++ {
			head := nc.PeekEject(c)
			if head == nil || cycle-head.EjectTime <= w.opts.StarveBound {
				continue
			}
			for p := range nc.Ejected(c) {
				w.starved = append(w.starved, p)
			}
		}
	}
	return w.starved
}

// starvationViolation renders the starved-packet report (capped detail
// lines; the full ID set rides in Violation.Packets).
func (w *Watchdog) starvationViolation(cycle int64, starved []*message.Packet) Violation {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: starvation at cycle %d: %d packets blocked beyond %d cycles\n",
		cycle, len(starved), w.opts.StarveBound)
	const maxLines = 16
	for i, p := range starved {
		if i == maxLines {
			fmt.Fprintf(&b, "  ... and %d more\n", len(starved)-maxLines)
			break
		}
		fmt.Fprintf(&b, "  packet %d (%v %d->%d, age %d)\n", p.ID, p.Class, p.Src, p.Dst, cycle-p.CreateTime)
	}
	b.WriteString("no waits-for cycle: the blockage is a sink that stopped sinking, not a buffer loop")
	ids := make([]uint64, 0, len(starved))
	for _, p := range starved {
		ids = append(ids, p.ID)
	}
	slices.Sort(ids)
	return Violation{Kind: Starvation, Cycle: cycle, Report: b.String(), Packets: ids}
}
