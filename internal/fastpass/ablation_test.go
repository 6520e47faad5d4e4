package fastpass

import (
	"testing"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ablationNetwork builds a FastPass network with explicit Params.
func ablationNetwork(w, h, vcs int, prm Params) (*network.Network, *Controller) {
	algs := make([]routing.Algorithm, vcs)
	for i := range algs {
		algs[i] = routing.FullyAdaptive
	}
	n := network.New(network.Params{
		Mesh: topology.NewMesh(w, h),
		Router: router.Config{
			NumVNs: 1, VCsPerVN: vcs, BufFlits: 5, InjQueueFlits: 10,
			VCAlgorithms: algs,
			ClassVN:      func(message.Class) int { return 0 },
		},
		EjectCap: 4,
	})
	return n, Attach(n, prm)
}

// Without scanning network input buffers, a prime can only promote its
// own injected packets: a packet parked in a network input VC of the
// prime never rides a lane. This isolates why §III-C3's point (2) scans
// *all* input buffers — deadlocked packets are in-transit packets.
func TestAblationScanInjectionOnlySkipsInTransitPackets(t *testing.T) {
	run := func(injOnly bool) message.Kind {
		n, ctl := ablationNetwork(4, 4, 1, Params{ScanInjectionOnly: injOnly})
		var kind message.Kind
		for _, nc := range n.NICs {
			nc.OnEject = func(p *message.Packet) { kind = p.Kind }
		}
		// At cycle 0 the prime of column 0 covers partition 0. Plant a
		// fully-buffered in-transit packet in its West input VC,
		// destined down its own column: the full scan promotes it in
		// the very first PreCycle, before the regular pipeline can act.
		sched := ctl.sched
		prime := sched.PrimeNode(0, 0)
		dst := prime + n.Mesh.W*2 // two rows down, same column
		if dst >= n.Mesh.NumNodes() {
			dst = prime % n.Mesh.W // wrap: top of the column
		}
		pkt := message.NewPacket(1, 1, dst, message.Request, 1, 0)
		if !n.Routers[prime].InsertPacket(topology.East, 0, pkt) {
			t.Fatal("failed to plant packet")
		}
		for i := 0; i < 2000 && pkt.EjectTime < 0; i++ {
			n.Step()
		}
		if pkt.EjectTime < 0 {
			t.Fatal("planted packet never delivered")
		}
		return kind
	}
	if got := run(false); got != message.FastPass {
		t.Errorf("full scan should promote the in-transit packet (got %v)", got)
	}
	if got := run(true); got != message.Regular {
		t.Errorf("injection-only scan must not promote in-transit packets (got %v)", got)
	}
}

// DropOnReject (the SCARAB-style alternative) must still deliver
// everything via MSHR regeneration, but with far more drops than the
// paper's reserve-and-return design (§III-C4, Fig. 13 vs SCARAB's 9%).
func TestAblationDropOnRejectIncreasesDrops(t *testing.T) {
	run := func(dropOnReject bool) (drops int64, delivered, total int) {
		n, ctl := ablationNetwork(3, 3, 1, Params{DropOnReject: dropOnReject})
		for _, nc := range n.NICs {
			nc.OnEject = func(*message.Packet) { delivered++ }
		}
		dst := 2
		stalled := true
		n.NICs[dst].Consumer = nic.ConsumeFunc(func(int64, *message.Packet) bool { return !stalled })
		for round := 0; round < 8; round++ {
			for s := 0; s < 9; s++ {
				if s != dst {
					total++
					n.NICs[s].EnqueueSource(message.NewPacket(uint64(total), s, dst, message.Request, 1, 0))
				}
			}
		}
		n.Run(30000)
		stalled = false
		for i := 0; i < 300000 && delivered < total; i++ {
			n.Step()
		}
		return ctl.Counters.Drops, delivered, total
	}
	baseDrops, baseDelivered, total := run(false)
	ablDrops, ablDelivered, _ := run(true)
	if baseDelivered != total || ablDelivered != total {
		t.Fatalf("delivery failed: base %d/%d, ablation %d/%d", baseDelivered, total, ablDelivered, total)
	}
	if ablDrops <= baseDrops {
		t.Errorf("drop-on-reject should drop more: %d vs %d", ablDrops, baseDrops)
	}
	t.Logf("ablation: reserve-and-return drops=%d, drop-on-reject drops=%d", baseDrops, ablDrops)
}

// The returning path must never collide with any lane: run the
// rejection-heavy workload with the collision assertion active (the
// network panics on a double claim) — reaching the end is the test.
func TestReturnPathsNeverCollideUnderStress(t *testing.T) {
	n, ctl := ablationNetwork(4, 4, 1, Params{})
	delivered := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { delivered++ }
	}
	// Stall every node's Request consumer periodically to force
	// rejections all over the mesh.
	for node := range n.NICs {
		node := node
		n.NICs[node].Consumer = nic.ConsumeFunc(func(cycle int64, p *message.Packet) bool {
			return (cycle/500+int64(node))%3 != 0 || p.Class != message.Request
		})
	}
	id := uint64(0)
	total := 0
	for round := 0; round < 20; round++ {
		for s := 0; s < 16; s++ {
			id++
			d := int(id*5) % 16
			if d == s {
				d = (d + 1) % 16
			}
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Request, 1+int(id%2)*4, 0))
			total++
		}
	}
	for i := 0; i < 400000 && delivered < total; i++ {
		n.Step()
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d under churning consumers (rejections=%d)",
			delivered, total, ctl.Counters.Rejections)
	}
	if ctl.Counters.Rejections == 0 {
		t.Log("note: no rejections occurred under this seed")
	}
}
