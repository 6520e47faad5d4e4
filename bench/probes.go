package main

import (
	"math/rand"

	"repro/internal/message"
	"repro/internal/nic"
	"repro/internal/parallel"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

// This file holds the isolated probes: a layer's public constructor and
// methods driven on their own, for the costs the traced pass cannot
// separate from outside (one router's Step inside the NIC+router phase,
// one NIC's inject and consume, parallel.Map's per-task overhead).

// probeBudgetNs is how long each probe level measures.
const probeBudgetNs = 40e6

// stubEnv is the router's window onto a network that is not there:
// nothing is claimed or stalled, every ejection is accepted, and flits
// driven onto links vanish — except that the downstream VC each one
// claimed is remembered, so the probe can hand the credit back outside
// the timed region.
type stubEnv struct {
	cycle int64
	sent  []sentFlit
}

type sentFlit struct{ link, vc int }

func (e *stubEnv) Cycle() int64                       { return e.cycle }
func (e *stubEnv) LinkClaimed(int) bool               { return false }
func (e *stubEnv) EjectClaimed(int) bool              { return false }
func (e *stubEnv) SendVCFree(int, int)                {}
func (e *stubEnv) CanEject(int, *message.Packet) bool { return true }
func (e *stubEnv) BeginEject(int, *message.Packet)    {}
func (e *stubEnv) CancelEject(int, *message.Packet)   {}
func (e *stubEnv) EjectFlit(int, message.Flit)        {}
func (e *stubEnv) WakeRouter(int)                     {}
func (e *stubEnv) InputStalled(int, int) bool         { return false }
func (e *stubEnv) SendFlit(link int, _ message.Flit, vc int) {
	e.sent = append(e.sent, sentFlit{link, vc})
}

// routerProbe measures Router.Step at three fixed occupancies on 64
// routers of an 8×8 mesh: empty, every other network VC holding a head
// packet, every network VC holding one. Packets are single-flit with
// seeded random destinations, so each Step allocates and switches as
// many heads as the output ports allow; the VCs that drained are
// refilled, and the credits returned, between timed batches.
func routerProbe(seed int64, vns, vcs int) (occ0, occHalf, occFull float64) {
	mesh := topology.NewMesh(8, 8)
	algs := make([]routing.Algorithm, vcs)
	for i := range algs {
		algs[i] = routing.FullyAdaptive
	}
	cfg := router.Config{
		NumVNs: vns, VCsPerVN: vcs, BufFlits: 5, InjQueueFlits: 10,
		VCAlgorithms: algs,
		ClassVN:      func(c message.Class) int { return int(c) % vns },
	}
	level := func(stride int) float64 {
		env := &stubEnv{}
		rng := rand.New(rand.NewSource(seed + 0x9b0be))
		routers := make([]*router.Router, mesh.NumNodes())
		for id := range routers {
			routers[id] = router.New(id, mesh, cfg, env)
		}
		links := mesh.Links()
		var nextID uint64
		refill := func() {
			for _, s := range env.sent {
				l := links[s.link]
				routers[l.Src].MarkVCFree(l.SrcPort, s.vc)
			}
			env.sent = env.sent[:0]
			if stride == 0 {
				return
			}
			for _, rt := range routers {
				for p := topology.Direction(1); int(p) < mesh.NumPorts(); p++ {
					if rt.InLinkID(p) < 0 {
						continue
					}
					for v := 0; v < cfg.NetVCs(); v += stride {
						if !rt.VCFor(p, v).Empty() {
							continue
						}
						dst := rng.Intn(mesh.NumNodes() - 1)
						if dst >= rt.ID {
							dst++
						}
						nextID++
						// The packet's class must map to the VN that owns VC v.
						cl := message.Class(v / vcs)
						rt.DeliverHead(p, v, message.NewPacket(nextID, rt.ID, dst, cl, 1, env.cycle))
					}
				}
			}
		}
		var busy, steps int64
		for busy < probeBudgetNs {
			refill()
			t0 := now()
			for _, rt := range routers {
				rt.Step()
			}
			busy += now() - t0
			steps += int64(len(routers))
			env.cycle++
		}
		return float64(busy) / float64(steps)
	}
	return level(0), level(2), level(1)
}

// nicProbe measures one packet's trip through NIC.TickInject (source
// queue → a stub Inject that always accepts) and through
// NIC.TickConsume (ejection queue → ImmediateConsumer).
func nicProbe() (injectNs, consumeNs float64) {
	const nodes, perNIC = 64, 4
	nics := make([]*nic.NIC, nodes)
	for id := range nics {
		nics[id] = nic.New(id, perNIC)
		nics[id].Inject = func(*message.Packet) bool { return true }
	}
	pkts := make([]*message.Packet, nodes*perNIC)
	for i := range pkts {
		pkts[i] = message.NewPacket(uint64(i+1), i%nodes, (i+1)%nodes, message.Request, 1, 0)
	}
	var injBusy, conBusy, n int64
	for cycle := int64(0); injBusy+conBusy < 2*probeBudgetNs; cycle++ {
		for i, pkt := range pkts {
			nics[i%nodes].EnqueueSource(pkt)
		}
		t0 := now()
		for _, nc := range nics {
			nc.TickInject(cycle)
		}
		injBusy += now() - t0
		for i, pkt := range pkts {
			nics[i%nodes].EjectFast(cycle, pkt)
		}
		t0 = now()
		for _, nc := range nics {
			nc.TickConsume(cycle)
		}
		conBusy += now() - t0
		n += int64(len(pkts))
	}
	return float64(injBusy) / float64(n), float64(conBusy) / float64(n)
}

// parallelProbe measures parallel.Map's overhead per task on no-op
// tasks at the campaign's worker count.
func parallelProbe() float64 {
	items := make([]int, 20000)
	var busy, n int64
	for busy < probeBudgetNs {
		t0 := now()
		parallel.Map(campaignJobs, items, func(i int) int { return i })
		busy += now() - t0
		n += int64(len(items))
	}
	return float64(busy) / float64(n)
}
