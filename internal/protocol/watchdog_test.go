package protocol

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/topology"
)

// TestStalledConsumerStarvationWatchdog wedges one node's processor
// permanently — through the fault injector, end to end — under live
// coherence traffic, and requires the starvation watchdog to fire
// naming only traffic bound for that node. The protocol engine stays
// installed as every NIC's Consumer throughout: the stall rides the
// NIC's fault hook, not a consumer swap.
func TestStalledConsumerStarvationWatchdog(t *testing.T) {
	const victim = 5
	mesh := topology.NewMesh(4, 4)
	n := escapeNet(mesh)
	e := New(n, Profile{IssueRate: 0.02}, 13)

	plan := faults.MustParsePlan("stallconsumer:node=5,at=200,perm")
	inj := faults.NewInjector(plan, len(mesh.Links()), mesh.NumNodes(), mesh.NumPorts(), 1)
	n.AttachFaults(inj)
	stall := func(node int, _ int64) bool { return inj.ConsumerStalled(node) }
	for _, nc := range n.NICs {
		nc.Stall = stall
	}
	w := invariant.Attach(n, invariant.Options{Stride: 16, StarveBound: 1024})

	for c := 0; c < 40000 && !w.Tripped(); c++ {
		e.Tick(n.Cycle())
		n.Step()
	}
	if !w.Tripped() {
		t.Fatal("permanently stalled consumer never tripped the watchdog in 40k cycles")
	}
	if inj.Counters.ConsumerStalls == 0 {
		t.Fatal("targeted stallconsumer event never fired")
	}
	vs := w.Violations()
	v := vs[len(vs)-1]
	if v.Kind != invariant.Starvation {
		t.Fatalf("violation kind = %v, want starvation:\n%s", v.Kind, v.Report)
	}
	if len(v.Packets) == 0 {
		t.Fatal("starvation violation names no packets")
	}

	// Reconstruct ID -> packet from everything still alive and check the
	// starved set is exactly traffic addressed to the wedged node.
	byID := map[uint64]*message.Packet{}
	for _, pkt := range n.ResidentPackets() {
		byID[pkt.ID] = pkt
	}
	for _, nc := range n.NICs {
		nc.ForEachResident(func(pkt *message.Packet) { byID[pkt.ID] = pkt })
	}
	for _, id := range v.Packets {
		pkt, ok := byID[id]
		if !ok {
			t.Errorf("starved packet %d not found in live state", id)
			continue
		}
		if pkt.Dst != victim {
			t.Errorf("starved packet %d bound for node %d, want only traffic to the stalled node %d", id, pkt.Dst, victim)
		}
	}
	if e.Completed == 0 {
		t.Error("no transaction completed before the stall took hold")
	}
}
