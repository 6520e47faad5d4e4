package protocol_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// wirePacket is what a NIC sees of a packet handed to it.
type wirePacket struct {
	id       uint64
	src, dst int
	class    message.Class
	len      int
	txn      uint64
}

// tapInjection records every packet a NIC passes to its router, in
// order (a FastPass drop re-queues and so re-records — on both sides).
func tapInjection(inst *sim.Instance, log *[]wirePacket) {
	for _, nc := range inst.Net.NICs {
		inject := nc.Inject
		nc.Inject = func(p *message.Packet) bool {
			ok := inject(p)
			if ok {
				*log = append(*log, wirePacket{p.ID, p.Src, p.Dst, p.Class, p.Len, p.TxnID})
			}
			return ok
		}
	}
}

// TestEngineMatchesReference runs the slab-table, arena-backed Engine
// in lockstep with the map-based reference it replaced, each over its
// own identically built network, and requires identical engine state
// after every cycle and an identical packet stream into the NICs: the
// table layout, the requester lookup through the home TBE and packet
// recycling must be invisible. FastPass on the 8×8 adds the
// dynamic-bubble drop (a packet re-queued at its source) to the mix.
func TestEngineMatchesReference(t *testing.T) {
	const cycles = 2000
	for _, shape := range []struct {
		size   int
		scheme sim.Scheme
	}{{4, sim.EscapeVC}, {8, sim.FastPass}} {
		for _, name := range workload.Names() {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%dx%d/%s/seed%d", shape.size, shape.size, name, seed), func(t *testing.T) {
					opts := sim.Options{Scheme: shape.scheme, W: shape.size, H: shape.size, Seed: seed}
					profile := workload.MustGet(name).Profile
					refInst, inst := sim.Build(opts), sim.Build(opts)
					var refWire, wire []wirePacket
					tapInjection(refInst, &refWire)
					tapInjection(inst, &wire)
					ref := protocol.NewRefEngine(refInst.Net, profile, seed+0xa99)
					eng := protocol.New(inst.Net, profile, seed+0xa99)
					for c := 0; c < cycles; c++ {
						ref.Tick(refInst.Cycle())
						eng.Tick(inst.Cycle())
						refInst.Step()
						inst.Step()
						if d := protocol.LockstepDiff(ref, eng); d != "" {
							t.Fatalf("cycle %d: %s", c, d)
						}
						if len(wire) != len(refWire) {
							t.Fatalf("cycle %d: %d packets injected, reference %d", c, len(wire), len(refWire))
						}
						for i := range wire {
							if wire[i] != refWire[i] {
								t.Fatalf("cycle %d: injected packet %d = %+v, reference %+v", c, i, wire[i], refWire[i])
							}
						}
						wire, refWire = wire[:0], refWire[:0]
					}
					if eng.Completed == 0 {
						t.Fatal("no transaction completed: the comparison exercised nothing")
					}
				})
			}
		}
	}
}

// TestSnapshotRestoreContinuesBitIdentical: an engine (and its network)
// checkpointed mid-run, restored onto a fresh Build + New and continued
// must stay byte-for-byte what the uninterrupted run is — tables in slot
// order, delayed emissions, RNG position and the arena's free list and
// counters included — and keep recycling: the restored arena's poison
// check would panic on any packet still referenced after its release.
func TestSnapshotRestoreContinuesBitIdentical(t *testing.T) {
	opts := sim.Options{Scheme: sim.FastPass, W: 4, H: 4, Seed: 5}
	profile := workload.MustGet("Streamcluster").Profile
	build := func() (*sim.Instance, *protocol.Engine) {
		inst := sim.Build(opts)
		return inst, protocol.New(inst.Net, profile, 11)
	}
	run := func(inst *sim.Instance, eng *protocol.Engine, cycles int) {
		for c := 0; c < cycles; c++ {
			eng.Tick(inst.Cycle())
			inst.Step()
		}
	}
	seal := func(inst *sim.Instance, eng *protocol.Engine) []byte {
		w := snapshot.NewWriter()
		inst.Net.SnapshotState(w)
		eng.SnapshotState(w)
		return snapshot.Seal(nil, w)
	}

	inst, eng := build()
	run(inst, eng, 1500)
	mid := seal(inst, eng)

	rinst, reng := build()
	_, r, err := snapshot.Open(mid)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rinst.Net.RestoreState(r)
	reng.RestoreState(r)
	if err := r.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := seal(rinst, reng); !bytes.Equal(got, mid) {
		t.Fatal("re-sealing the restored engine does not reproduce the checkpoint")
	}

	run(inst, eng, 1500)
	run(rinst, reng, 1500)
	if !bytes.Equal(seal(rinst, reng), seal(inst, eng)) {
		t.Errorf("restored run diverged: issued/completed/stalled %d/%d/%d, uninterrupted %d/%d/%d",
			reng.Issued, reng.Completed, reng.Stalled, eng.Issued, eng.Completed, eng.Stalled)
	}
	if eng.Completed == 0 || eng.OutstandingTxns() == 0 {
		t.Errorf("%d completed, %d outstanding: the checkpoint exercised no table state", eng.Completed, eng.OutstandingTxns())
	}

	// A table count beyond the slab must fail the restore, not index out
	// of the window.
	w := snapshot.NewWriter()
	w.U64(0)
	w.U64(0)
	w.U64(0)
	w.Int(1 << 20)
	_, r, _ = snapshot.Open(snapshot.Seal(nil, w))
	_, fresh := build()
	fresh.RestoreState(r)
	if r.Err() == nil {
		t.Error("a hostile MSHR count was not rejected")
	}
}
