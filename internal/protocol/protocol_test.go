package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baselines/escapevc"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// escapeNet builds an EscapeVC network on mesh (2 VCs a VN, 4 ejection
// slots a class); the scheme needs no controller.
func escapeNet(mesh *topology.Mesh) *network.Network {
	return network.New(network.Params{Mesh: mesh, Router: escapevc.Config(2), EjectCap: 4})
}

func run(t *testing.T, profile Profile, cycles int) (*Engine, *network.Network) {
	t.Helper()
	n := escapeNet(topology.NewMesh(4, 4))
	e := New(n, profile, 7)
	for c := 0; c < cycles; c++ {
		e.Tick(n.Cycle())
		n.Step()
	}
	return e, n
}

func TestTransactionsComplete(t *testing.T) {
	e, _ := run(t, Profile{IssueRate: 0.02}, 20000)
	if e.Issued == 0 {
		t.Fatal("no transactions issued")
	}
	if e.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	// With a long tail of in-flight work allowed, most must finish.
	if float64(e.Completed) < 0.8*float64(e.Issued) {
		t.Errorf("completed %d of %d issued", e.Completed, e.Issued)
	}
}

func TestAllFlowsExercised(t *testing.T) {
	e, _ := run(t, Profile{
		IssueRate: 0.05, FwdFraction: 0.3, InvFraction: 0.3, WBFraction: 0.2,
	}, 30000)
	if e.Completed < 100 {
		t.Fatalf("only %d transactions completed", e.Completed)
	}
}

func TestMSHRBound(t *testing.T) {
	// Issue rate 1.0 with tiny MSHRs: outstanding work must stay
	// bounded.
	n := escapeNet(topology.NewMesh(4, 4))
	e := New(n, Profile{IssueRate: 1.0, MSHRs: 4}, 7)
	for c := 0; c < 5000; c++ {
		e.Tick(n.Cycle())
		n.Step()
		if e.OutstandingTxns() > 4*16 {
			t.Fatalf("outstanding %d exceeds MSHR bound", e.OutstandingTxns())
		}
	}
	if e.Completed == 0 {
		t.Fatal("no progress under full MSHR pressure")
	}
}

func TestTBEStallsGenerateBackpressure(t *testing.T) {
	e, _ := run(t, Profile{IssueRate: 0.5, TBEs: 2, MSHRs: 16}, 10000)
	if e.Stalled == 0 {
		t.Error("tiny TBE pool should stall request consumption")
	}
	if e.Completed == 0 {
		t.Fatal("no progress despite stalls")
	}
}

func TestDeterminism(t *testing.T) {
	f := func() (int64, int64) {
		n := escapeNet(topology.NewMesh(4, 4))
		e := New(n, Profile{IssueRate: 0.1, FwdFraction: 0.2, InvFraction: 0.2, WBFraction: 0.1}, 7)
		for c := 0; c < 5000; c++ {
			e.Tick(n.Cycle())
			n.Step()
		}
		return e.Issued, e.Completed
	}
	i1, c1 := f()
	i2, c2 := f()
	if i1 != i2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", i1, c1, i2, c2)
	}
}

func TestClassMixOnWire(t *testing.T) {
	n := escapeNet(topology.NewMesh(4, 4))
	e := New(n, Profile{IssueRate: 0.1, FwdFraction: 0.3, InvFraction: 0.3, WBFraction: 0.15}, 7)
	seen := map[message.Class]int{}
	for _, nc := range n.NICs {
		nc.OnEject = func(p *message.Packet) { seen[p.Class]++ }
	}
	for c := 0; c < 30000; c++ {
		e.Tick(n.Cycle())
		n.Step()
	}
	for cl := message.Class(0); cl < message.NumClasses; cl++ {
		if seen[cl] == 0 {
			t.Errorf("class %v never crossed the network", cl)
		}
	}
}

func TestLocalityShortensPaths(t *testing.T) {
	hops := func(loc float64) (sum, cnt int64) {
		n := escapeNet(topology.NewMesh(4, 4))
		e := New(n, Profile{IssueRate: 0.05, Locality: loc}, 7)
		for _, nc := range n.NICs {
			nc.OnEject = func(p *message.Packet) {
				if p.Class == message.Request {
					sum += int64(n.Mesh.Distance(p.Src, p.Dst))
					cnt++
				}
			}
		}
		for c := 0; c < 10000; c++ {
			e.Tick(n.Cycle())
			n.Step()
		}
		return sum, cnt
	}
	s0, c0 := hops(0)
	s1, c1 := hops(0.9)
	if c0 == 0 || c1 == 0 {
		t.Fatal("no requests delivered")
	}
	if float64(s1)/float64(c1) >= float64(s0)/float64(c0) {
		t.Errorf("locality should shorten request paths: %v vs %v",
			float64(s1)/float64(c1), float64(s0)/float64(c0))
	}
}

// ---------------------------------------------------------------------
// Reference engine: the map-based Engine as it stood before the slab
// tables and the arena, verbatim apart from the ref* names — one heap
// object per MSHR/TBE entry, one message.NewPacket per message, the
// requester found by probing every core's map. TestEngineMatchesReference
// (differential_test.go) runs it in lockstep with Engine.
// ---------------------------------------------------------------------

// refTxn tracks an outstanding transaction at its issuing core.
type refTxn struct {
	id       uint64
	core     int
	home     int
	acksLeft int
	dataSeen bool
}

// refHomeEntry tracks a transaction being serviced by a home node (a TBE).
type refHomeEntry struct {
	txnID uint64
	core  int
}

// refEngine drives protocol traffic over a Backend.
type refEngine struct {
	be      Backend
	profile Profile
	rng     *rand.Rand
	// src counts RNG draws so a checkpoint can record the stream
	// position (issue rolls and owner rejection loops consume a
	// state-dependent number of draws).
	src *snapshot.CountingSource

	nextPktID uint64
	nextTxnID uint64

	coreMSHRs []map[uint64]*refTxn
	homeTBEs  []map[uint64]*refHomeEntry
	emitQ     []delayed

	// Issued and Completed count transactions; the execution-time
	// experiments run until Completed reaches a work quota.
	Issued, Completed int64

	// Stalled counts consumer refusals (protocol backpressure events).
	Stalled int64
}

// NewRefEngine wires a reference engine to a backend: it installs
// itself as every NIC's consumer.
func NewRefEngine(be Backend, profile Profile, seed int64) *refEngine {
	profile.SetDefaults()
	src := snapshot.NewCountingSource(seed)
	e := &refEngine{
		be:        be,
		profile:   profile,
		rng:       rand.New(src),
		src:       src,
		coreMSHRs: make([]map[uint64]*refTxn, be.Nodes()),
		homeTBEs:  make([]map[uint64]*refHomeEntry, be.Nodes()),
	}
	for i := 0; i < be.Nodes(); i++ {
		e.coreMSHRs[i] = make(map[uint64]*refTxn)
		e.homeTBEs[i] = make(map[uint64]*refHomeEntry)
		node := i
		be.NIC(i).Consumer = nic.ConsumeFunc(func(cycle int64, pkt *message.Packet) bool {
			return e.consume(node, cycle, pkt)
		})
	}
	return e
}

// OutstandingTxns reports live transactions (diagnostics).
func (e *refEngine) OutstandingTxns() int {
	t := 0
	for _, m := range e.coreMSHRs {
		t += len(m)
	}
	return t
}

// newPacket allocates a protocol packet.
func (e *refEngine) newPacket(src, dst int, cl message.Class, flits int, txnID uint64) *message.Packet {
	e.nextPktID++
	p := message.NewPacket(e.nextPktID, src, dst, cl, flits, e.be.Cycle())
	p.TxnID = txnID
	return p
}

// pickHome selects a home node for a new transaction, skewed by
// locality and by the hot-home set.
func (e *refEngine) pickHome(core int) int {
	n := e.be.Nodes()
	if e.rng.Float64() < e.profile.Locality {
		// Nearest neighbour by node ID ring (cheap locality proxy).
		if core+1 < n {
			return core + 1
		}
		return core - 1
	}
	if e.profile.HotFraction > 0 && e.rng.Float64() < e.profile.HotFraction {
		// Hot homes sit at fixed pseudo-random positions; skip the
		// issuing core itself.
		h := (7 + 13*e.rng.Intn(e.profile.HotHomes)) % n
		if h != core {
			return h
		}
	}
	h := e.rng.Intn(n - 1)
	if h >= core {
		h++
	}
	return h
}

// Tick issues new transactions and emits delayed responses. Call once
// per cycle before the network steps.
func (e *refEngine) Tick(cycle int64) {
	// Emit matured packets.
	keep := e.emitQ[:0]
	for _, d := range e.emitQ {
		if d.at > cycle {
			keep = append(keep, d)
			continue
		}
		e.be.NIC(d.pkt.Src).EnqueueSource(d.pkt)
	}
	e.emitQ = keep
	// Issue new work in bursts: each trigger issues up to Burst
	// transactions, with the trigger probability scaled so the mean
	// offered rate stays IssueRate.
	for core := 0; core < e.be.Nodes(); core++ {
		if e.rng.Float64() >= e.profile.IssueRate/float64(e.profile.Burst) {
			continue
		}
		for k := 0; k < e.profile.Burst; k++ {
			if len(e.coreMSHRs[core]) >= e.profile.MSHRs {
				break
			}
			e.issue(core)
		}
	}
}

// issue starts one transaction at a core.
func (e *refEngine) issue(core int) {
	e.nextTxnID++
	home := e.pickHome(core)
	t := &refTxn{id: e.nextTxnID, core: core, home: home}
	e.coreMSHRs[core][t.id] = t
	e.Issued++
	if e.rng.Float64() < e.profile.WBFraction {
		// Writeback: data out, ack back.
		t.acksLeft = 1
		t.dataSeen = true // no data expected back
		e.be.NIC(core).EnqueueSource(e.newPacket(core, home, message.WriteBack, 5, t.id))
		return
	}
	t.acksLeft = 0
	e.be.NIC(core).EnqueueSource(e.newPacket(core, home, message.Request, 1, t.id))
}

// emitAfter schedules a packet after the home processing delay.
func (e *refEngine) emitAfter(pkt *message.Packet, delay int64) {
	e.emitQ = append(e.emitQ, delayed{pkt: pkt, at: e.be.Cycle() + delay})
}

// consume is the NIC consumer: node received pkt from the network.
func (e *refEngine) consume(node int, cycle int64, pkt *message.Packet) bool {
	switch pkt.Class {
	case message.Request:
		return e.homeRequest(node, pkt)
	case message.WriteBack:
		return e.homeWriteback(node, pkt)
	case message.Forward:
		// Owner: always consumable; sends data to the requester after a
		// cache access delay. The requester core ID rides in TxnID's
		// MSHR table via the home TBE — the forward carries it in Dst
		// semantics: we look it up from the TBE at consume time.
		e.ownerForward(node, pkt)
		return true
	case message.Invalidate:
		// Sharer: ack to the requester.
		e.sharerInvalidate(node, pkt)
		return true
	case message.Response:
		e.coreResponse(node, pkt)
		return true
	case message.Unblock:
		e.homeUnblock(node, pkt)
		return true
	default:
		panic("protocol: unknown class")
	}
}

// homeRequest services a Request at the home: allocate a TBE or stall.
func (e *refEngine) homeRequest(home int, pkt *message.Packet) bool {
	if len(e.homeTBEs[home]) >= e.profile.TBEs {
		e.Stalled++
		return false
	}
	requester := pkt.Src
	e.homeTBEs[home][pkt.TxnID] = &refHomeEntry{txnID: pkt.TxnID, core: requester}
	t := e.coreMSHRs[requester][pkt.TxnID]
	if t == nil {
		panic("protocol: request for unknown transaction")
	}
	roll := e.rng.Float64()
	switch {
	case roll < e.profile.FwdFraction:
		// Three-hop: forward to a pseudo-owner.
		owner := e.pickOwner(home, requester)
		t.acksLeft = 0
		e.emitAfter(e.newPacket(home, owner, message.Forward, 1, pkt.TxnID), e.profile.HomeLatency)
	case roll < e.profile.FwdFraction+e.profile.InvFraction:
		// Invalidate k sharers; they ack the requester directly. Data
		// still comes from home.
		k := 1 + e.rng.Intn(e.profile.MaxSharers)
		t.acksLeft = k
		for i := 0; i < k; i++ {
			sharer := e.pickOwner(home, requester)
			e.emitAfter(e.newPacket(home, sharer, message.Invalidate, 1, pkt.TxnID), e.profile.HomeLatency)
		}
		e.emitAfter(e.newPacket(home, requester, message.Response, 5, pkt.TxnID), e.profile.HomeLatency)
	default:
		// Two-hop data response.
		t.acksLeft = 0
		e.emitAfter(e.newPacket(home, requester, message.Response, 5, pkt.TxnID), e.profile.HomeLatency)
	}
	return true
}

// homeWriteback services a WriteBack: ack the writer.
func (e *refEngine) homeWriteback(home int, pkt *message.Packet) bool {
	if len(e.homeTBEs[home]) >= e.profile.TBEs {
		e.Stalled++
		return false
	}
	e.homeTBEs[home][pkt.TxnID] = &refHomeEntry{txnID: pkt.TxnID, core: pkt.Src}
	e.emitAfter(e.newPacket(home, pkt.Src, message.Response, 1, pkt.TxnID), e.profile.HomeLatency)
	return true
}

// pickOwner selects a pseudo owner/sharer distinct from home and
// requester where possible.
func (e *refEngine) pickOwner(home, requester int) int {
	n := e.be.Nodes()
	if n <= 2 {
		return (home + 1) % n
	}
	for {
		o := e.rng.Intn(n)
		if o != home && o != requester {
			return o
		}
	}
}

// ownerForward: the owner sends data to the requester recorded in the
// home's TBE.
func (e *refEngine) ownerForward(owner int, pkt *message.Packet) {
	// The forward carries TxnID; find the requester from any core MSHR.
	// Homes embed the requester in the TBE, but the owner knows it from
	// the message in real Hammer; we recover it via the MSHR table.
	for core := range e.coreMSHRs {
		if t, ok := e.coreMSHRs[core][pkt.TxnID]; ok {
			e.emitAfter(e.newPacket(owner, t.core, message.Response, 5, pkt.TxnID), 2)
			return
		}
	}
	// Transaction already completed (stale forward): drop silently.
}

// sharerInvalidate: ack the requester with a control response.
func (e *refEngine) sharerInvalidate(sharer int, pkt *message.Packet) {
	for core := range e.coreMSHRs {
		if t, ok := e.coreMSHRs[core][pkt.TxnID]; ok {
			e.emitAfter(e.newPacket(sharer, t.core, message.Response, 1, pkt.TxnID), 2)
			return
		}
	}
}

// coreResponse: data or ack arrived at the requesting core.
func (e *refEngine) coreResponse(core int, pkt *message.Packet) {
	t, ok := e.coreMSHRs[core][pkt.TxnID]
	if !ok {
		return // stale ack after completion
	}
	if pkt.Len == 5 || t.dataSeen {
		t.dataSeen = true
	}
	if pkt.Len == 1 && t.acksLeft > 0 {
		t.acksLeft--
	}
	if t.dataSeen && t.acksLeft == 0 {
		// Complete: unblock the home and free the MSHR.
		delete(e.coreMSHRs[core], t.id)
		e.Completed++
		e.be.NIC(core).EnqueueSource(e.newPacket(core, t.home, message.Unblock, 1, t.id))
	}
}

// homeUnblock: transaction closed; free the TBE.
func (e *refEngine) homeUnblock(home int, pkt *message.Packet) {
	delete(e.homeTBEs[home], pkt.TxnID)
}

// LockstepDiff compares every piece of engine state the two
// implementations share and describes the first difference ("" = none):
// counters, RNG draw count, id counters, the delayed-emission queue, and
// each node's MSHR and TBE tables as sets (table order is not state).
func LockstepDiff(ref *refEngine, e *Engine) string {
	if ref.Issued != e.Issued || ref.Completed != e.Completed || ref.Stalled != e.Stalled {
		return fmt.Sprintf("issued/completed/stalled %d/%d/%d, reference %d/%d/%d",
			e.Issued, e.Completed, e.Stalled, ref.Issued, ref.Completed, ref.Stalled)
	}
	if ref.src.Draws() != e.src.Draws() {
		return fmt.Sprintf("RNG draws %d, reference %d", e.src.Draws(), ref.src.Draws())
	}
	if ref.nextPktID != e.nextPktID || ref.nextTxnID != e.nextTxnID {
		return fmt.Sprintf("next packet/txn id %d/%d, reference %d/%d", e.nextPktID, e.nextTxnID, ref.nextPktID, ref.nextTxnID)
	}
	if len(ref.emitQ) != len(e.emitQ) {
		return fmt.Sprintf("emitQ holds %d, reference %d", len(e.emitQ), len(ref.emitQ))
	}
	for i, d := range ref.emitQ {
		if g := e.emitQ[i]; g.at != d.at || g.pkt.ID != d.pkt.ID {
			return fmt.Sprintf("emitQ[%d] = packet %d at %d, reference packet %d at %d", i, g.pkt.ID, g.at, d.pkt.ID, d.at)
		}
	}
	for node := range ref.coreMSHRs {
		if got, want := e.coreMSHRs.count[node], len(ref.coreMSHRs[node]); got != want {
			return fmt.Sprintf("core %d has %d outstanding transactions, reference %d", node, got, want)
		}
		for id, rt := range ref.coreMSHRs[node] {
			if t := e.coreMSHRs.find(node, id); t == nil || *t != (txn{rt.id, rt.core, rt.home, rt.acksLeft, rt.dataSeen}) {
				return fmt.Sprintf("core %d transaction %d = %+v, reference %+v", node, id, t, *rt)
			}
		}
		if got, want := e.homeTBEs.count[node], len(ref.homeTBEs[node]); got != want {
			return fmt.Sprintf("home %d has %d TBEs, reference %d", node, got, want)
		}
		for id, rh := range ref.homeTBEs[node] {
			if h := e.homeTBEs.find(node, id); h == nil || *h != (homeEntry{rh.txnID, rh.core}) {
				return fmt.Sprintf("home %d TBE %d = %+v, reference %+v", node, id, h, *rh)
			}
		}
	}
	return ""
}
