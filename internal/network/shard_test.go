package network

import (
	"fmt"
	"testing"

	"repro/internal/message"
	"repro/internal/routing"
)

// ejectRecord is one observable delivery event: which node delivered
// which packet at which cycle, in OnEject firing order. The sharded
// loop must reproduce the serial sequence exactly — order included.
type ejectRecord struct {
	node  int
	pkt   uint64
	cycle int64
}

// driveBurst runs an all-to-all burst with staggered enqueue times on a
// fresh 4×4 network with the given shard count, recording the full
// ejection sequence and a per-cycle flit-count trace.
func driveBurst(t *testing.T, shards int) ([]ejectRecord, []int64, *Network) {
	t.Helper()
	n := New(paramsWith(4, 4, 1, 2, routing.XY))
	n.SetShards(shards)
	var ejects []ejectRecord
	for id, nc := range n.NICs {
		node := id
		nc.OnEject = func(p *message.Packet) {
			ejects = append(ejects, ejectRecord{node: node, pkt: p.ID, cycle: n.Cycle()})
		}
	}
	var flitTrace []int64
	id := uint64(0)
	step := func() {
		n.Step()
		flitTrace = append(flitTrace, n.FlitsOnLinks)
	}
	// Staggered all-to-all: a few sources enqueue each cycle, so wakes,
	// dirty lists and active sets churn while the network is stepping.
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
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), ln, n.Cycle()))
		}
		step()
		step()
	}
	for i := 0; i < 5000 && len(ejects) < int(id); i++ {
		step()
	}
	if len(ejects) != int(id) {
		t.Fatalf("shards=%d: delivered %d of %d packets", shards, len(ejects), id)
	}
	for i := 0; i < 20; i++ {
		step() // trailing credits
	}
	return ejects, flitTrace, n
}

// TestShardedStepBitIdentical is the tentpole invariant at the network
// layer: -shards 1 and -shards N produce the identical ejection
// sequence (same packets, same nodes, same cycles, same order) and the
// identical per-cycle link-utilisation trace, and both drain to a
// quiescent network.
func TestShardedStepBitIdentical(t *testing.T) {
	baseEj, baseFl, _ := driveBurst(t, 1)
	for _, k := range []int{2, 3, 4, 16} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			ej, fl, n := driveBurst(t, k)
			if len(n.shards) != k {
				t.Fatalf("len(shards) = %d, want %d", len(n.shards), k)
			}
			if len(ej) != len(baseEj) {
				t.Fatalf("delivered %d packets, serial delivered %d", len(ej), len(baseEj))
			}
			for i := range ej {
				if ej[i] != baseEj[i] {
					t.Fatalf("ejection %d = %+v, serial had %+v", i, ej[i], baseEj[i])
				}
			}
			for i := range fl {
				if fl[i] != baseFl[i] {
					t.Fatalf("cycle %d: FlitsOnLinks = %d, serial had %d", i, fl[i], baseFl[i])
				}
			}
			if err := n.VerifyQuiescent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSetShardsMidRun repartitions a live network mid-burst — active
// members, dirty channels and flits in flight must carry over without
// perturbing the outcome.
func TestSetShardsMidRun(t *testing.T) {
	baseEj, baseFl, _ := driveBurst(t, 1)
	n := New(paramsWith(4, 4, 1, 2, routing.XY))
	var ejects []ejectRecord
	for id, nc := range n.NICs {
		node := id
		nc.OnEject = func(p *message.Packet) {
			ejects = append(ejects, ejectRecord{node: node, pkt: p.ID, cycle: n.Cycle()})
		}
	}
	var flitTrace []int64
	reshard := []int{1, 4, 2, 16, 3, 1}
	id := uint64(0)
	step := func() {
		n.SetShards(reshard[int(n.Cycle())%len(reshard)])
		n.Step()
		flitTrace = append(flitTrace, n.FlitsOnLinks)
	}
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
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), ln, n.Cycle()))
		}
		step()
		step()
	}
	for i := 0; i < 5000 && len(ejects) < int(id); i++ {
		step()
	}
	for i := 0; i < 20; i++ {
		step()
	}
	if len(ejects) != len(baseEj) {
		t.Fatalf("delivered %d packets, serial delivered %d", len(ejects), len(baseEj))
	}
	for i := range ejects {
		if ejects[i] != baseEj[i] {
			t.Fatalf("ejection %d = %+v, serial had %+v", i, ejects[i], baseEj[i])
		}
	}
	for i := range flitTrace {
		if flitTrace[i] != baseFl[i] {
			t.Fatalf("cycle %d: FlitsOnLinks = %d, serial had %d", i, flitTrace[i], baseFl[i])
		}
	}
	if err := n.VerifyQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestShardPanicPropagates: a simulator bug inside a parallel section
// must surface as a panic on the stepping goroutine, not crash a worker.
func TestShardPanicPropagates(t *testing.T) {
	n := New(paramsWith(4, 4, 1, 2, routing.XY))
	n.SetShards(4)
	n.NICs[9].EnqueueSource(message.NewPacket(1, 9, 0, message.Request, 1, 0))
	n.NICs[9].Inject = func(*message.Packet) bool { panic("network: rigged injection failure") }
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic did not propagate to Step's caller")
		}
	}()
	for i := 0; i < 4; i++ {
		n.Step()
	}
}
