package tfc

import (
	"testing"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/topology"
)

// newNet builds a network with this scheme's Table II router (2 VCs a
// VN, 4 ejection slots a class), ready for Attach.
func newNet(mesh *topology.Mesh) *network.Network {
	return network.New(network.Params{Mesh: mesh, Router: Config(2), EjectCap: 4})
}

func TestTFCDeliversMixedBurst(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	ctl := Attach(n)
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	total := 0
	id := uint64(0)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			id++
			ln := 1
			if id%2 == 0 {
				ln = 5
			}
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), ln, 0))
			total++
		}
	}
	for i := 0; i < 60000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("TFC failed to drain: %d of %d", ejected, total)
	}
	if ctl.Bypasses == 0 {
		t.Error("no token bypasses occurred")
	}
}

// Under contention, token bypassing must not hurt — and the blocked
// packets it serves should keep average latency at or below the plain
// West-first network's. (With 1-cycle routers an uncontended path has no
// pipeline to skip, so at *zero* load TFC matches the baseline exactly,
// as in Fig. 7.)
func TestTokenBypassHelpsUnderContention(t *testing.T) {
	run := func(withTokens bool) (float64, int64) {
		mesh := topology.NewMesh(8, 8)
		n := newNet(mesh)
		var ctl *Controller
		if withTokens {
			ctl = Attach(n)
		}
		var sum, cnt int64
		for _, nc := range n.NICs {
			nc.OnEject = func(p *message.Packet) { sum += p.Latency(); cnt++ }
		}
		// Bursty contention: several rounds of control packets
		// converging pairwise.
		id := uint64(0)
		for round := 0; round < 20; round++ {
			for s := 0; s < 64; s++ {
				id++
				n.NICs[s].EnqueueSource(message.NewPacket(id, s, 63-s, message.Request, 1, 0))
			}
		}
		n.Run(4000)
		if cnt == 0 {
			t.Fatal("no deliveries")
		}
		var bypasses int64
		if ctl != nil {
			bypasses = ctl.Bypasses
		}
		return float64(sum) / float64(cnt), bypasses
	}
	with, bypasses := run(true)
	without, _ := run(false)
	if bypasses == 0 {
		t.Fatal("contention produced no token bypasses")
	}
	if with > without*1.02 {
		t.Errorf("token bypass hurt latency: with=%v without=%v", with, without)
	}
}

// TFC's West-first routing is deadlock-free by the turn model: the ring
// burst that deadlocks adaptive schemes drains here without recovery
// machinery.
func TestWestFirstAvoidsRingDeadlock(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	Attach(n)
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	ring := []int{0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4}
	total := 0
	id := uint64(0)
	for round := 0; round < 200; round++ {
		for i, s := range ring {
			d := ring[(i+3)%len(ring)]
			id++
			ln := 1
			if id%2 == 0 {
				ln = 5
			}
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Request, ln, 0))
			total++
		}
	}
	for i := 0; i < 600000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("West-first ring traffic stuck: %d of %d", ejected, total)
	}
}
