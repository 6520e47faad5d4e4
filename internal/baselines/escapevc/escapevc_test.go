package escapevc

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

func TestConfigRejectsSingleVC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1 VC")
		}
	}()
	Config(1)
}

func TestConfigShape(t *testing.T) {
	cfg := Config(2)
	if cfg.NumVNs != 6 || cfg.VCsPerVN != 2 {
		t.Fatalf("config = %d VNs × %d VCs", cfg.NumVNs, cfg.VCsPerVN)
	}
	if cfg.VCAlgorithms[0].String() != "WestFirst" {
		t.Error("VC0 must be the West-first escape channel")
	}
	if cfg.VCAlgorithms[1].String() != "FullyAdaptive" {
		t.Error("VC1 must be adaptive")
	}
}

// The escape channel makes the adaptive burst that deadlocks a bare
// network drain completely.
func TestEscapeVCDrainsAdaptiveBurst(t *testing.T) {
	n := newNet(topology.NewMesh(4, 4))
	total, ejected := 0, 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { ejected++ }
	}
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
	for i := 0; i < 30000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("escape VC failed to drain: %d of %d (resident %d)",
			ejected, total, len(n.ResidentPackets()))
	}
}
