// Package protocol implements a transaction-level cache-coherence
// engine standing in for gem5's Ruby + MOESI Hammer. It reproduces the
// network-visible structure of coherence traffic — six message classes
// with real dependencies between them, finite MSHRs at the cores and
// TBEs at the homes, and consumers that stall when those resources are
// exhausted — which is exactly the structure that makes protocol-level
// deadlock possible when virtual networks are removed.
//
// Transaction flows (classes in parentheses):
//
//	miss:      Request(1♭) → home → Response(5♭) → Unblock(1♭)
//	forwarded: Request(1♭) → home → Forward(1♭) → owner → Response(5♭) → Unblock(1♭)
//	inval:     Request(1♭) → home → Invalidate(1♭)×k → sharers → Response(1♭ ack)…
//	           plus home data Response(5♭) → Unblock(1♭)
//	writeback: WriteBack(5♭) → home → Response(1♭ ack)
//
// ♭ = flits. Response and Unblock are sink classes: their consumption
// never blocks, which is what Lemma 3 relies on.
package protocol

import (
	"math/rand"

	"repro/internal/message"
	"repro/internal/nic"
	"repro/internal/snapshot"
	"repro/internal/spare"
)

// Profile parameterises the traffic a workload produces. The named
// application profiles live in internal/workload.
type Profile struct {
	// IssueRate is the probability per core per cycle of issuing a new
	// transaction (subject to a free MSHR).
	IssueRate float64
	// FwdFraction of read transactions are three-hop (owner forwards).
	FwdFraction float64
	// InvFraction of transactions invalidate sharers.
	InvFraction float64
	// MaxSharers bounds invalidation fan-out.
	MaxSharers int
	// WBFraction of transactions are writebacks.
	WBFraction float64
	// HomeLatency is the directory/LLC processing delay in cycles.
	HomeLatency int64
	// Locality skews home selection toward near nodes: 0 = uniform,
	// 1 = always the nearest other node.
	Locality float64
	// Burst is the mean transaction clump size: cores issue work in
	// bursts (a cache-line walk, a barrier) rather than a smooth
	// Bernoulli stream. 0/1 = no bursts. The aggregate issue rate stays
	// IssueRate.
	Burst int
	// HotFraction of non-local transactions target one of HotHomes
	// pseudo-randomly chosen hot home nodes (shared data structures),
	// creating the transient congestion trees real coherence traffic
	// exhibits. HotHomes defaults to 3.
	HotFraction float64
	HotHomes    int
	// MSHRs per core and TBEs per home bound outstanding transactions.
	MSHRs, TBEs int
}

// SetDefaults fills zero fields with sane values.
func (p *Profile) SetDefaults() {
	if p.MSHRs == 0 {
		p.MSHRs = 16
	}
	if p.TBEs == 0 {
		p.TBEs = 16
	}
	if p.HomeLatency == 0 {
		p.HomeLatency = 8
	}
	if p.MaxSharers == 0 {
		p.MaxSharers = 4
	}
	if p.Burst == 0 {
		p.Burst = 1
	}
	if p.HotHomes == 0 {
		p.HotHomes = 3
	}
}

// Backend is the network as the engine sees it: per-node NICs.
type Backend interface {
	NIC(node int) *nic.NIC
	Nodes() int
	Cycle() int64
}

// txn tracks an outstanding transaction at its issuing core (an MSHR).
type txn struct {
	id       uint64
	core     int
	home     int
	acksLeft int
	dataSeen bool
}

// homeEntry tracks a transaction being serviced by a home node (a TBE).
type homeEntry struct {
	txnID uint64
	core  int
}

func (t txn) key() uint64       { return t.id }
func (h homeEntry) key() uint64 { return h.txnID }

// table is one fixed-capacity transaction table per node, carved from a
// single slab: node n's live entries are the first count[n] slots of
// its per-slot window, in no meaningful order (ids are unique). Tables
// hold at most 16 entries, so lookup by id is a short linear scan.
type table[T interface{ key() uint64 }] struct {
	slab  []T
	count []int
	per   int
}

func newTable[T interface{ key() uint64 }](slabs *spare.Store[T], nodes, per int) table[T] {
	return table[T]{slab: slabs.Take(nodes * per), count: spareCounts.Take(nodes), per: per}
}

// The stores New takes its tables from and Release returns them to.
var (
	spareMSHRs  spare.Store[txn]
	spareTBEs   spare.Store[homeEntry]
	spareCounts spare.Store[int]
)

// live is node's occupied slots.
func (t *table[T]) live(node int) []T { return t.slab[node*t.per:][:t.count[node]] }

// find returns node's entry for id (valid until its next remove) or nil.
func (t *table[T]) find(node int, id uint64) *T {
	live := t.live(node)
	for i := range live {
		if live[i].key() == id {
			return &live[i]
		}
	}
	return nil
}

// add claims node's next slot for v; the caller checked for room.
func (t *table[T]) add(node int, v T) *T {
	t.count[node]++
	live := t.live(node)
	live[len(live)-1] = v
	return &live[len(live)-1]
}

// remove frees e, an entry of node, by moving the node's last one in.
func (t *table[T]) remove(node int, e *T) {
	live := t.live(node)
	*e = live[len(live)-1]
	t.count[node]--
}

// delayed is a packet scheduled for emission after a processing delay.
type delayed struct {
	pkt *message.Packet
	at  int64
}

// Engine drives protocol traffic over a Backend.
type Engine struct {
	be      Backend
	profile Profile
	rng     *rand.Rand
	// src counts RNG draws so a checkpoint can record the stream
	// position (issue rolls and owner rejection loops consume a
	// state-dependent number of draws).
	src *snapshot.CountingSource

	// pool is the arena every protocol packet comes from and returns to.
	pool *message.Pool

	nextPktID uint64
	nextTxnID uint64

	coreMSHRs table[txn]
	homeTBEs  table[homeEntry]
	emitQ     []delayed // new, not yet injected packets

	// Issued and Completed count transactions; the execution-time
	// experiments run until Completed reaches a work quota.
	Issued, Completed int64

	// Stalled counts consumer refusals (protocol backpressure events).
	Stalled int64
}

// New wires an engine to a backend: it installs itself as every NIC's
// consumer and its packet arena as every NIC's Recycle — TryConsume
// reads a packet and returns, transactions live in the MSHR/TBE tables,
// so a consumed packet has no holder left. Everything the engine needs
// is sized here; only the arena and emitQ grow with the load.
func New(be Backend, profile Profile, seed int64) *Engine {
	profile.SetDefaults()
	src, nodes := snapshot.NewCountingSource(seed), be.Nodes()
	e := &Engine{
		be:        be,
		profile:   profile,
		rng:       rand.New(src),
		src:       src,
		pool:      message.NewPool(),
		coreMSHRs: newTable(&spareMSHRs, nodes, profile.MSHRs),
		homeTBEs:  newTable(&spareTBEs, nodes, profile.TBEs),
		emitQ:     make([]delayed, 0, nodes),
	}
	// A packet is consumed at its destination: the owner in poison panics.
	recycle := func(p *message.Packet) { e.pool.PutCtx(p, p.Dst, be.Cycle()) }
	for i := 0; i < nodes; i++ {
		be.NIC(i).Consumer = e
		be.NIC(i).Recycle = recycle
	}
	return e
}

// Pool returns the engine's packet arena, for the run that owns the
// engine to release when it ends (sim.RunApp).
func (e *Engine) Pool() *message.Pool { return e.pool }

// Release hands the MSHR and TBE tables and the RNG source to the next
// engine built in the process. Nothing may use e afterwards.
func (e *Engine) Release() {
	spareMSHRs.Put(e.coreMSHRs.slab)
	spareTBEs.Put(e.homeTBEs.slab)
	spareCounts.Put(e.coreMSHRs.count)
	spareCounts.Put(e.homeTBEs.count)
	e.src.Release()
}

// OutstandingTxns reports live transactions (diagnostics).
func (e *Engine) OutstandingTxns() int {
	t := 0
	for _, k := range e.coreMSHRs.count {
		t += k
	}
	return t
}

// newPacket draws a protocol packet from the arena.
func (e *Engine) newPacket(src, dst int, cl message.Class, flits int, txnID uint64) *message.Packet {
	e.nextPktID++
	p := e.pool.Get(e.nextPktID, src, dst, cl, flits, e.be.Cycle())
	p.TxnID = txnID
	return p
}

// pickHome selects a home node for a new transaction, skewed by
// locality and by the hot-home set.
func (e *Engine) pickHome(core int) int {
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
//
//nocvet:hot
func (e *Engine) Tick(cycle int64) {
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
			if e.coreMSHRs.count[core] >= e.profile.MSHRs {
				break
			}
			e.issue(core)
		}
	}
}

// issue starts one transaction at a core.
func (e *Engine) issue(core int) {
	e.nextTxnID++
	home := e.pickHome(core)
	t := e.coreMSHRs.add(core, txn{id: e.nextTxnID, core: core, home: home})
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
func (e *Engine) emitAfter(pkt *message.Packet, delay int64) {
	e.emitQ = append(e.emitQ, delayed{pkt: pkt, at: e.be.Cycle() + delay})
}

// TryConsume implements nic.Consumer for every node: pkt arrived at its
// destination. It keeps no reference to pkt — the NIC recycles it on a
// true return.
//
//nocvet:hot
func (e *Engine) TryConsume(cycle int64, pkt *message.Packet) bool {
	node := pkt.Dst
	switch pkt.Class {
	case message.Request:
		return e.homeRequest(node, pkt)
	case message.WriteBack:
		return e.homeWriteback(node, pkt)
	case message.Forward:
		// Owner: always consumable; sends data to the requester after a
		// cache access delay.
		e.replyToRequester(node, pkt, 5)
		return true
	case message.Invalidate:
		// Sharer: ack to the requester with a control response.
		e.replyToRequester(node, pkt, 1)
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
func (e *Engine) homeRequest(home int, pkt *message.Packet) bool {
	if e.homeTBEs.count[home] >= e.profile.TBEs {
		e.Stalled++
		return false
	}
	requester := pkt.Src
	e.homeTBEs.add(home, homeEntry{txnID: pkt.TxnID, core: requester})
	t := e.coreMSHRs.find(requester, pkt.TxnID)
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
func (e *Engine) homeWriteback(home int, pkt *message.Packet) bool {
	if e.homeTBEs.count[home] >= e.profile.TBEs {
		e.Stalled++
		return false
	}
	e.homeTBEs.add(home, homeEntry{txnID: pkt.TxnID, core: pkt.Src})
	e.emitAfter(e.newPacket(home, pkt.Src, message.Response, 1, pkt.TxnID), e.profile.HomeLatency)
	return true
}

// pickOwner selects a pseudo owner/sharer distinct from home and
// requester where possible.
func (e *Engine) pickOwner(home, requester int) int {
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

// replyToRequester answers a Forward (owner: 5-flit data) or Invalidate
// (sharer: 1-flit ack) with a Response to the requester. In real Hammer
// the message names it; here pkt.Src is the home, whose TBE recorded it.
// A stale message (transaction already completed) is dropped silently.
func (e *Engine) replyToRequester(node int, pkt *message.Packet, flits int) {
	h := e.homeTBEs.find(pkt.Src, pkt.TxnID)
	if h == nil || e.coreMSHRs.find(h.core, pkt.TxnID) == nil {
		return
	}
	e.emitAfter(e.newPacket(node, h.core, message.Response, flits, pkt.TxnID), 2)
}

// coreResponse: data or ack arrived at the requesting core.
func (e *Engine) coreResponse(core int, pkt *message.Packet) {
	t := e.coreMSHRs.find(core, pkt.TxnID)
	if t == nil {
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
		e.be.NIC(core).EnqueueSource(e.newPacket(core, t.home, message.Unblock, 1, t.id))
		e.coreMSHRs.remove(core, t)
		e.Completed++
	}
}

// homeUnblock: transaction closed; free the TBE.
func (e *Engine) homeUnblock(home int, pkt *message.Packet) {
	if h := e.homeTBEs.find(home, pkt.TxnID); h != nil {
		e.homeTBEs.remove(home, h)
	}
}
