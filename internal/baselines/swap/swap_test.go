package swap

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

// burst saturates a 4×4 network with sustained single-class clockwise
// ring traffic along the mesh boundary: one virtual network fills
// completely and fully-adaptive routing deadlocks without a recovery
// scheme (verified against a controller-less network).
func burst(enqueue func(p *message.Packet)) int {
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
			enqueue(message.NewPacket(id, s, d, message.Request, ln, 0))
			total++
		}
	}
	return total
}

func TestSwapResolvesDeadlock(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	ctl := Attach(n, Params{Duty: 256})
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	total := burst(func(p *message.Packet) { n.NICs[p.Src].EnqueueSource(p) })
	for i := 0; i < 400000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("SWAP failed to drain: %d of %d (swaps=%d moves=%d)",
			ejected, total, ctl.Swaps, ctl.Misroutes)
	}
	if ctl.Swaps+ctl.Moves == 0 {
		t.Error("the adaptive burst should have forced at least one swap or move")
	}
	if len(n.ResidentPackets()) != 0 {
		t.Error("network not empty after drain")
	}
}

func TestSwapIdleWithoutBlockage(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	n := newNet(mesh)
	ctl := Attach(n, Params{Duty: 64})
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	// A single light packet: never blocked long enough to swap.
	n.NICs[0].EnqueueSource(message.NewPacket(1, 0, 8, message.Request, 1, 0))
	n.Run(500)
	if ejected != 1 {
		t.Fatal("light traffic failed")
	}
	if ctl.Swaps != 0 || ctl.Moves != 0 {
		t.Errorf("idle network swapped: swaps=%d moves=%d", ctl.Swaps, ctl.Moves)
	}
}

func TestSwapDefaults(t *testing.T) {
	c := Attach(newNet(topology.NewMesh(2, 2)), Params{})
	if c.prm.Duty != 1024 {
		t.Errorf("defaults = %+v, want Table II's 1K duty", c.prm)
	}
}
