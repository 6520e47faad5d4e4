package network

import (
	"fmt"

	"repro/internal/message"
)

// Spatial sharding of one mesh (DESIGN.md §12). The node range [0, N) is
// partitioned into K contiguous shards; the phases of Step that touch
// only per-node state (NIC injection, router VA/SA/traversal) run
// shard-parallel between barriers, while the phases with global effects
// (protocol consumption, controller Pre/PostCycle, the link shift)
// stay serial. Every cross-shard effect a parallel phase produces is
// funnelled through per-shard accumulators — wake inserts, dirty-channel
// marks, the FlitsOnLinks counter — and merged in shard order at the
// barrier, which is what makes `-shards 1` and `-shards N` bit-identical.
//
// shardState is shard-local by construction: exactly one worker touches
// it during a parallel section, and only serial code reads it between
// sections. That ownership argument is why the struct carries no
// //nocvet:shared marking — its fields are not shared state, they are
// the per-shard queues the //nocvet:ignore phasesafe suppressions in
// network.go and activeset.go promised.
type shardState struct {
	lo, hi int // node ID range [lo, hi)

	// Per-shard active sets: membership for nodes in [lo, hi) only.
	// Wakes for a shard's node always land here, whether they come from
	// the owning worker (injection, ejection credit) or from serial code
	// (controller inserts, shift deliveries) — the router/NIC env routes
	// through Network.shardOf either way.
	activeRouters activeSet
	activeNICs    activeSet

	// dirty is this shard's channel wake queue, deduplicated by
	// dirtySeen, merged into the global dirty list at the barrier.
	dirty     []int
	dirtySeen []bool

	// flits accumulates this shard's FlitsOnLinks increments, summed at
	// the barrier (commutative, so the split is exact).
	flits int64

	// env is the router.Env bound to this shard's routers while the
	// network is sharded (K > 1). For K == 1 the routers keep the
	// Network itself as their env and none of the accumulators above see
	// traffic outside the active sets.
	env shardEnv
}

// mark registers a channel on the shard's dirty queue (idempotent).
func (sh *shardState) mark(linkID int) {
	if !sh.dirtySeen[linkID] {
		sh.dirtySeen[linkID] = true
		sh.dirty = append(sh.dirty, linkID)
	}
}

// shardEnv is the router.Env a shard's routers see while K > 1: it
// inherits the read-only and node-local methods from Network and
// redirects the three cross-shard effects (flit launch, credit return,
// router wake) into the shard's private accumulators. A link's next
// stage is written only by its source router and its credit pipe only
// by its destination router, so two shards never write the same field.
type shardEnv struct {
	*Network
	sh *shardState
}

// SendFlit implements router.Env for a sharded step: identical to
// Network.SendFlit except the flit count and dirty mark stay shard-local
// until the barrier.
func (e *shardEnv) SendFlit(linkID int, f message.Flit, outVC int) {
	n := e.Network
	ch := n.channels[linkID]
	if ch.next.valid {
		panic(fmt.Sprintf("network: two flits driven onto link %d in cycle %d", linkID, n.cycle))
	}
	tr := transit{flit: f, vc: outVC, valid: true}
	if n.faults != nil {
		tr.payload = message.FlitPayload(f.Pkt.ID, f.Seq)
		tr.sum = message.Checksum(tr.payload)
	}
	ch.next = tr
	// The per-link counter stays a plain field even here: this link's
	// next stage — and so this call — belongs exclusively to the source
	// router's shard (the unique-writer argument above).
	ch.flits++
	e.sh.flits++
	e.sh.mark(linkID)
}

// SendVCFree implements router.Env for a sharded step.
func (e *shardEnv) SendVCFree(linkID int, vc int) {
	ch := e.Network.channels[linkID]
	ch.creditNext = append(ch.creditNext, vc)
	e.sh.mark(linkID)
}

// WakeRouter implements router.Env for a sharded step. The waking
// router always wakes itself (insertion into its own queues), so the
// target is in this shard; routing through shardOf keeps the method
// correct for serial-phase callers too.
func (e *shardEnv) WakeRouter(node int) { e.Network.wakeRouter(node) }

// SetShards repartitions the mesh into k contiguous shards (clamped to
// [1, NumNodes]) and rebinds every router's environment. Safe between
// Steps at any time; active members and dirty state carry over. With
// k == 1 the network runs the exact serial cycle loop.
func (n *Network) SetShards(k int) {
	if k < 1 {
		k = 1
	}
	if nodes := n.Mesh.NumNodes(); k > nodes {
		k = nodes
	}
	if k == len(n.shards) {
		return
	}
	// Collect live membership in ascending ID order before dropping the
	// old partition (shards are contiguous and ordered, so concatenating
	// per-shard sorted lists yields a globally sorted list).
	var actR, actN []int
	for _, sh := range n.shards {
		actR = append(actR, sh.activeRouters.ids...)
		actN = append(actN, sh.activeNICs.ids...)
	}
	nodes := n.Mesh.NumNodes()
	n.shards = make([]*shardState, k)
	n.shardPanics = make([]any, k)
	for s := 0; s < k; s++ {
		sh := &shardState{
			lo:            s * nodes / k,
			hi:            (s + 1) * nodes / k,
			activeRouters: newActiveSet(nodes),
			activeNICs:    newActiveSet(nodes),
			dirtySeen:     make([]bool, len(n.channels)),
		}
		sh.env = shardEnv{Network: n, sh: sh}
		n.shards[s] = sh
		for id := sh.lo; id < sh.hi; id++ {
			n.shardOf[id] = int32(s)
		}
	}
	for _, r := range n.Routers {
		if k == 1 {
			r.Env = n
		} else {
			r.Env = &n.shards[n.shardOf[r.ID]].env
		}
	}
	for _, id := range actR {
		n.shards[n.shardOf[id]].activeRouters.add(id)
	}
	for _, id := range actN {
		n.shards[n.shardOf[id]].activeNICs.add(id)
	}
}

// wakeRouter routes a router wake to its owning shard's active set.
func (n *Network) wakeRouter(node int) { n.shards[n.shardOf[node]].activeRouters.add(node) }

// WakeNIC implements nic.Waker: it routes a NIC wake to its owning
// shard's active set.
func (n *Network) WakeNIC(node int) { n.shards[n.shardOf[node]].activeNICs.add(node) }

// Parallel-section opcodes: the two shard-parallel stretches of
// stepSharded. An opcode switch instead of a func-literal parameter
// keeps the per-cycle barrier free of closure allocations (the hotalloc2
// contract) — goroutine spawns are the only per-section cost.
const (
	sectionCompact = iota
	sectionInjectRoute
)

// runSection runs one parallel section on every shard: shard 0 on the
// calling goroutine, the rest on fresh goroutines, joined before
// returning (one barrier). A panic in any shard is re-raised on the
// caller, lowest shard index first, so a simulator bug aborts
// deterministically regardless of scheduling.
func (n *Network) runSection(op int) {
	for s := 1; s < len(n.shards); s++ {
		n.wg.Add(1)
		go n.runShardSectionAsync(op, s)
	}
	n.runShardSection(op, 0)
	n.wg.Wait()
	for s, p := range n.shardPanics {
		if p != nil {
			n.shardPanics[s] = nil
			//nocvet:ignore panicstyle re-raises the shard worker's original panic value (itself a "network: …" string) on the stepping goroutine
			panic(p)
		}
	}
}

func (n *Network) runShardSectionAsync(op, s int) {
	defer n.wg.Done()
	defer n.recoverShardPanic(s)
	n.runShardBody(op, n.shards[s])
}

func (n *Network) runShardSection(op, s int) {
	defer n.recoverShardPanic(s)
	n.runShardBody(op, n.shards[s])
}

// recoverShardPanic parks a worker's panic for deterministic re-raise
// at the barrier (recover only works when called directly by the
// deferred function, hence a named method rather than inline closures).
func (n *Network) recoverShardPanic(s int) {
	if p := recover(); p != nil {
		n.shardPanics[s] = p
	}
}

func (n *Network) runShardBody(op int, sh *shardState) {
	switch op {
	case sectionCompact:
		sh.activeRouters.compact(n.routerOccupied)
		sh.activeNICs.compact(n.nicBusy)
	case sectionInjectRoute:
		nics := &sh.activeNICs
		for nics.cur = 0; nics.cur < len(nics.ids); nics.cur++ {
			n.NICs[nics.ids[nics.cur]].TickInject(n.cycle)
		}
		nics.cur = -1
		routers := &sh.activeRouters
		for routers.cur = 0; routers.cur < len(routers.ids); routers.cur++ {
			n.Routers[routers.ids[routers.cur]].Step()
		}
		routers.cur = -1
	}
}

// mergeShardEffects folds every shard's accumulators into the global
// engine state, in shard order: dirty-channel marks dedup into the
// global dirty list (append order is shard-count-dependent, which is
// unobservable — shift's per-channel effects are disjoint and its fault
// rolls are hashed per (cycle, link), not drawn sequentially), and the
// commutative flit counter sums exactly.
func (n *Network) mergeShardEffects() {
	for _, sh := range n.shards {
		for _, id := range sh.dirty {
			sh.dirtySeen[id] = false
			n.markChannel(id)
		}
		sh.dirty = sh.dirty[:0]
		n.FlitsOnLinks += sh.flits
		sh.flits = 0
	}
}
