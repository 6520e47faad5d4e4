package network

import "repro/internal/snapshot"

// Snapshots are taken between Steps, at a cycle boundary. The engine
// guarantees a set of invariants there that shrink the state surface:
// every channel's next stage is invalid and its credit pipe drained
// only after shift ran — but shift runs inside Step, so both hold;
// shard dirty queues and flit accumulators are empty/zero; deferEject
// is false; no active-set iteration is running (cur == -1). Those
// fields are transient in the manifest. Claims from the previous cycle
// are still set (beginCycle clears them at the top of the next Step),
// so they are encoded even though nothing will read them before the
// clear — encoding exact state is cheaper than proving it dead.
//
// Restore targets a freshly built Network with identical construction
// parameters: wiring, topology and closures come from Build; only
// mutable state is decoded. Active-set membership is encoded as the
// global sorted ID lists and re-inserted through the wake routing, so
// a checkpoint taken at one shard count restores correctly at any
// other.

func writeTransit(w *snapshot.Writer, t *transit) {
	w.Bool(t.valid)
	if !t.valid {
		return
	}
	w.Packet(t.flit.Pkt)
	w.Int(t.flit.Seq)
	w.Int(t.vc)
	w.U64(t.payload)
	w.U8(t.sum)
}

func readTransit(r *snapshot.Reader, t *transit, netVCs int) {
	*t = transit{}
	t.valid = r.Bool()
	if !t.valid {
		return
	}
	t.flit.Pkt = r.Packet()
	t.flit.Seq = r.Int()
	t.vc = readIndex(r, "flit VC", netVCs)
	t.payload = r.U64()
	t.sum = r.U8()
}

// readIndex reads a value that must index [0, n): a hostile blob fails
// the reader instead of panicking the restore.
func readIndex(r *snapshot.Reader, what string, n int) int {
	v := r.Int()
	if r.Err() == nil && (v < 0 || v >= n) {
		r.Fail("network: %s %d outside [0, %d)", what, v, n)
	}
	return v
}

// readIndices reads a count and that many indices, handing each to add,
// which reports false for one it cannot take again.
func readIndices(r *snapshot.Reader, what string, n int, add func(int) bool) {
	for k, i := r.Int(), 0; i < k && r.Err() == nil; i++ {
		if v := readIndex(r, what, n); r.Err() == nil && !add(v) {
			r.Fail("network: %s %d repeated", what, v)
		}
	}
}

// SnapshotState encodes the network and everything it owns: cycle
// engine state, channels, claims, NICs, routers, the attached
// controller (when it carries state) and the fault injector (when
// attached).
func (n *Network) SnapshotState(w *snapshot.Writer) {
	w.I64(n.cycle)
	w.I64(n.FlitsOnLinks)
	for _, ch := range n.channels {
		writeTransit(w, &ch.cur)
		writeTransit(w, &ch.next)
		w.Int(len(ch.creditNext))
		for _, vc := range ch.creditNext {
			w.Int(vc)
		}
		w.I64(ch.flits)
	}
	w.Int(len(n.claimedLinks))
	for _, id := range n.claimedLinks {
		w.Int(id)
	}
	w.Int(len(n.claimedEjects))
	for _, id := range n.claimedEjects {
		w.Int(id)
	}
	w.Int(len(n.dirtyChannels))
	for _, id := range n.dirtyChannels {
		w.Int(id)
	}
	// Active sets: shards hold contiguous node ranges in order, so
	// concatenating their sorted member lists yields the global sorted
	// membership.
	actR, actN := 0, 0
	for _, sh := range n.shards {
		actR += len(sh.activeRouters.ids)
		actN += len(sh.activeNICs.ids)
	}
	w.Int(actR)
	for _, sh := range n.shards {
		for _, id := range sh.activeRouters.ids {
			w.Int(id)
		}
	}
	w.Int(actN)
	for _, sh := range n.shards {
		for _, id := range sh.activeNICs.ids {
			w.Int(id)
		}
	}
	for _, nc := range n.NICs {
		nc.SnapshotState(w)
	}
	for _, rt := range n.Routers {
		rt.SnapshotState(w)
	}
	if st, ok := n.Controller.(snapshot.Stater); ok {
		w.Bool(true)
		st.SnapshotState(w)
	} else {
		w.Bool(false)
	}
	if n.faults != nil {
		w.Bool(true)
		n.faults.SnapshotState(w)
	} else {
		w.Bool(false)
	}
}

// RestoreState decodes into a freshly built Network (same Params, same
// attached controller type, fault injector already attached when the
// checkpoint carried one).
func (n *Network) RestoreState(r *snapshot.Reader) {
	n.cycle = r.I64()
	n.FlitsOnLinks = r.I64()
	links, nodes, netVCs := len(n.channels), len(n.Routers), n.Routers[0].Cfg.NetVCs()
	for _, ch := range n.channels {
		readTransit(r, &ch.cur, netVCs)
		readTransit(r, &ch.next, netVCs)
		ch.creditNext = ch.creditNext[:0]
		readIndices(r, "credit VC", netVCs, func(vc int) bool {
			ch.creditNext = append(ch.creditNext, vc)
			return len(ch.creditNext) <= netVCs // a VC frees once a cycle
		})
		ch.flits = r.I64()
	}
	// The claims go back into the routers' masks as well as the arrays.
	readIndices(r, "claimed link", links, n.TryClaimLink)
	readIndices(r, "claimed ejection port", nodes, func(id int) bool {
		if n.ejectClaims[id] {
			return false
		}
		n.ClaimEject(id)
		return true
	})
	readIndices(r, "dirty channel", links, func(id int) bool { n.markChannel(id); return true })
	readIndices(r, "active router", nodes, func(id int) bool { n.wakeRouter(id); return true })
	readIndices(r, "active NIC", nodes, func(id int) bool { n.WakeNIC(id); return true })
	for _, nc := range n.NICs {
		nc.RestoreState(r)
	}
	for _, rt := range n.Routers {
		rt.RestoreState(r)
	}
	if r.Bool() {
		st, ok := n.Controller.(snapshot.Stater)
		if !ok {
			r.Fail("checkpoint carries controller state but controller %q has none", n.Controller.Name())
			return
		}
		st.RestoreState(r)
	}
	if r.Bool() {
		if n.faults == nil {
			r.Fail("checkpoint carries fault-injector state but none is attached")
			return
		}
		n.faults.RestoreState(r)
		n.pushFaults()
	}
}

func init() {
	snapshot.Register("network.Network", Network{},
		[]string{
			"cycle", "FlitsOnLinks", "channels",
			"linkClaims", "claimedLinks", "ejectClaims", "claimedEjects",
			"dirtyChannels", "chDirty",
			"shards", // active-set membership; scratch queues are empty at the boundary
			"NICs", "Routers", "Controller", "faults",
		},
		[]string{
			// Construction-time wiring and configuration.
			"Mesh", "shardOf", "Probe",
			// Barrier plumbing, quiescent between Steps.
			"wg", "shardPanics",
			"masked", // the restore re-pushes claims and faults
			// False at every cycle boundary (flipped only around the
			// sharded router phase inside Step).
			"deferEject",
		})
	snapshot.Register("network.channel", channel{},
		[]string{"cur", "next", "creditNext", "flits"},
		[]string{"link"})
	snapshot.Register("network.transit", transit{},
		[]string{"flit", "vc", "valid", "payload", "sum"},
		nil)
	snapshot.Register("network.shardState", shardState{},
		[]string{"activeRouters", "activeNICs"},
		[]string{
			"lo", "hi", "env",
			// Drained into the global lists at every merge barrier;
			// provably empty between Steps.
			"dirty", "dirtySeen", "flits",
		})
	snapshot.Register("network.activeSet", activeSet{},
		[]string{"in", "ids"},
		[]string{"cur"}) // -1 between Steps; only live mid-iteration
}
