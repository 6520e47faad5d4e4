package pitstop

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

// mixedBurst floods a VN-free network with all-to-all traffic across
// every class — the load that deadlocks a bare 1-VN adaptive network.
func mixedBurst(enqueue func(p *message.Packet), nodes int) int {
	total := 0
	id := uint64(0)
	for round := 0; round < 3; round++ {
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if s == d {
					continue
				}
				id++
				ln := 1
				if id%2 == 0 {
					ln = 5
				}
				enqueue(message.NewPacket(id, s, d, message.Class(id%6), ln, 0))
				total++
			}
		}
	}
	return total
}

func TestPitstopResolvesDeadlockWithoutVNs(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := newNet(mesh)
	ctl := Attach(n)
	if n.Routers[0].Cfg.NumVNs != 1 {
		t.Fatal("Pitstop must run without virtual networks")
	}
	ejected := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
	total := mixedBurst(func(p *message.Packet) { n.NICs[p.Src].EnqueueSource(p) }, 16)
	for i := 0; i < 600000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("Pitstop failed to drain: %d of %d (absorbed=%d reinjected=%d pitted=%d)",
			ejected, total, ctl.Absorbed, ctl.Reinjected, ctl.Pitted())
	}
	if ctl.Absorbed == 0 {
		t.Error("the deadlocking burst should force pit stops")
	}
	if ctl.Pitted() != 0 {
		t.Error("pits should be empty after drain")
	}
}

func TestBypassClassRotates(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	ctl := Attach(newNet(mesh))
	seen := map[message.Class]bool{}
	slot := ctl.classSlot
	for c := int64(0); c < int64(message.NumClasses)*slot; c += slot {
		seen[ctl.bypassClass(c)] = true
	}
	if len(seen) != int(message.NumClasses) {
		t.Errorf("rotation covered %d of %d classes", len(seen), message.NumClasses)
	}
	if ctl.bypassClass(0) == ctl.bypassClass(slot) {
		t.Error("class must change across slots")
	}
}

func TestClassSlotScalesWithNetworkSize(t *testing.T) {
	small := Attach(newNet(topology.NewMesh(4, 4))).classSlot
	big := Attach(newNet(topology.NewMesh(16, 16))).classSlot
	if big <= small {
		t.Errorf("slot must grow with size: %d vs %d (the Table I scalability critique)", small, big)
	}
}

// Pitted counts packets currently waiting in pits (conservation checks).
func (c *Controller) Pitted() int {
	t := 0
	for _, p := range c.pits {
		t += len(p)
	}
	return t
}
