package drain

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

func ringBurst(enqueue func(p *message.Packet)) int {
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

func TestSerpentineVisitsAllNodesAdjacent(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {3, 5}, {8, 8}, {2, 3}} {
		m := topology.NewMesh(dims[0], dims[1])
		order := serpentine(m)
		if len(order) != m.NumNodes() {
			t.Fatalf("%v: serpentine has %d entries", dims, len(order))
		}
		seen := map[int]bool{}
		for i, node := range order {
			if seen[node] {
				t.Fatalf("%v: node %d visited twice", dims, node)
			}
			seen[node] = true
			if i > 0 && m.Distance(order[i-1], node) != 1 {
				t.Fatalf("%v: serpentine step %d not a mesh hop", dims, i)
			}
		}
	}
}

func TestDrainResolvesDeadlock(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	// Short period so the test drains promptly (the paper's 64K period
	// just spaces the windows out).
	n := newNet(mesh)
	ctl := Attach(n, Params{Period: 2048})
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	total := ringBurst(func(p *message.Packet) { n.NICs[p.Src].EnqueueSource(p) })
	for i := 0; i < 600000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("DRAIN failed to drain: %d of %d (windows=%d rotations=%d)",
			ejected, total, ctl.Windows, ctl.Rotations)
	}
	if ctl.Windows == 0 || ctl.Rotations == 0 {
		t.Errorf("expected drain activity: windows=%d rotations=%d", ctl.Windows, ctl.Rotations)
	}
	if len(n.ResidentPackets()) != 0 {
		t.Error("network not empty after drain")
	}
}

// Packets rotated during drains are misrouted: their hop counts exceed
// the minimal distance (DRAIN's tail-latency poison, Fig. 12).
func TestDrainMisroutes(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	ctl := Attach(n, Params{Period: 512})
	var misrouted int
	for _, nc := range n.NICs {
		nc.OnEject = func(p *message.Packet) {
			if p.Hops > mesh.Distance(p.Src, p.Dst) {
				misrouted++
			}
		}
	}
	ringBurst(func(p *message.Packet) { n.NICs[p.Src].EnqueueSource(p) })
	n.Run(60000)
	if ctl.Rotations == 0 {
		t.Skip("no rotations under this load")
	}
	if misrouted == 0 {
		t.Error("rotations occurred but no packet shows excess hops")
	}
}

func TestDrainQuietBeforeFirstPeriod(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	ctl := Attach(n, Params{Period: 10000})
	n.NICs[0].EnqueueSource(message.NewPacket(1, 0, 15, message.Request, 1, 0))
	n.Run(500)
	if ctl.Draining || ctl.Rotations != 0 {
		t.Error("drain ran before the first period elapsed")
	}
}
