package network

import (
	"math"

	"repro/internal/snapshot"
)

// Snapshots are taken between Steps, at a cycle boundary. The engine
// guarantees a set of invariants there that shrink the state surface:
// shift has just run, so every channel's next stage is invalid, its
// credit pipe drained, and it is dirty exactly when its cur stage holds
// a flit; no active-set iteration is running (cur == -1). So next, the
// credit pipes and the active-set cursors are transient in the manifest,
// and a link stage is encoded for the dirty channels only. Claims from
// the previous cycle are still set (beginCycle clears them at the top of
// the next Step), so they are encoded even though nothing will read them
// before the clear — encoding exact state is cheaper than proving it
// dead.
//
// Restore targets a freshly built Network with identical construction
// parameters: wiring, topology and closures come from Build; only
// mutable state is decoded. Active-set membership is encoded as the
// sorted ID lists, and a restore wakes each member.

// index walks a value that must index [0, n): a hostile blob fails the
// restore instead of panicking it.
func index(s snapshot.State, v *int, what string, n int) {
	if snapshot.Int(s, v); s.Decoding() && (*v < 0 || *v >= n) {
		s.Fail("network: %s %d outside [0, %d)", what, *v, n)
	}
}

// indices walks a count and that many indices into [0, n), the i-th
// from at when encoding; a restore hands each to add, which reports
// false for one it cannot take again.
func indices(s snapshot.State, what string, n, count int, at func(int) int, add func(int) bool) {
	k := s.Len(count, math.MaxInt, "network index list")
	for i := 0; i < k && s.Err() == nil; i++ {
		var v int
		if !s.Decoding() {
			v = at(i)
		}
		if index(s, &v, what, n); s.Decoding() && s.Err() == nil && !add(v) {
			s.Fail("network: %s %d repeated", what, v)
		}
	}
}

// active walks one active set's sorted member list. A restore wakes
// each member.
func (n *Network) active(s snapshot.State, what string, set *activeSet) {
	indices(s, what, len(n.Routers), len(set.ids), func(i int) int { return set.ids[i] }, func(id int) bool {
		set.add(id)
		return true
	})
}

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly built Network (same Params, same attached controller type,
// fault injector already attached when the checkpoint carried one).
func (n *Network) SnapshotState(w *snapshot.Writer) { n.state(w.State()) }
func (n *Network) RestoreState(r *snapshot.Reader)  { n.state(r.State()) }

// state walks the cycle engine state, the channels' flit counters,
// claims (a restore puts them back into the routers' masks as well as the
// arrays), the dirty channels with their link stages, active sets, NICs,
// routers, the attached controller (when it carries state) and the fault
// injector (when attached). A restore refuses a flit on a wire that the
// decoded routers could not take: a head needs a VC with room, a body
// flit the tail entry of its packet.
func (n *Network) state(s snapshot.State) {
	snapshot.Int(s, &n.cycle, &n.FlitsOnLinks)
	links, nodes, netVCs := len(n.channels), len(n.Routers), n.Routers[0].Cfg.NetVCs()
	for _, ch := range n.channels {
		snapshot.Int(s, &ch.flits)
	}
	indices(s, "claimed link", links, len(n.claimedLinks), func(i int) int { return n.claimedLinks[i] }, n.TryClaimLink)
	indices(s, "claimed ejection port", nodes, len(n.claimedEjects), func(i int) int { return n.claimedEjects[i] }, func(id int) bool {
		if n.ejectClaims[id] {
			return false
		}
		n.ClaimEject(id)
		return true
	})
	indices(s, "dirty channel", links, len(n.dirtyChannels), func(i int) int { return n.dirtyChannels[i] }, func(id int) bool {
		if n.chDirty[id] {
			return false
		}
		n.markChannel(id)
		return true
	})
	for _, id := range n.dirtyChannels {
		t := &n.channels[id].cur
		if s.Decoding() {
			t.valid = true
		}
		s.Packet(&t.flit.Pkt)
		snapshot.Int(s, &t.flit.Seq)
		vc := int(t.vc)
		index(s, &vc, "flit VC", netVCs)
		t.vc = int32(vc)
		snapshot.Uint(s, &t.payload)
		snapshot.Byte(s, &t.sum)
	}
	n.active(s, "active router", &n.activeRouters)
	n.active(s, "active NIC", &n.activeNICs)
	for _, nc := range n.NICs {
		s.Walk(nc)
	}
	for _, rt := range n.Routers {
		s.Walk(rt)
	}
	for _, id := range n.dirtyChannels {
		t, lk := &n.channels[id].cur, n.channels[id].link
		if s.Decoding() && s.Err() == nil && (t.flit.Pkt == nil || !n.Routers[lk.Dst].VCFor(lk.DstPort, int(t.vc)).Lands(t.flit)) {
			s.Fail("network: link %d carries a flit that router %d port %v VC %d cannot take", id, lk.Dst, lk.DstPort, t.vc)
		}
	}
	st, ok := n.Controller.(snapshot.Stater)
	if s.Present(ok) {
		if !ok {
			s.Fail("checkpoint carries controller state but controller %q has none", n.Controller.Name())
			return
		}
		s.Walk(st)
	}
	if s.Present(n.faults != nil) {
		if n.faults == nil {
			s.Fail("checkpoint carries fault-injector state but none is attached")
			return
		}
		if s.Walk(n.faults); s.Decoding() {
			n.pushFaults()
		}
	}
}

func init() {
	snapshot.Register("network.Network", Network{},
		[]string{
			"cycle", "FlitsOnLinks", "channels",
			"linkClaims", "claimedLinks", "ejectClaims", "claimedEjects",
			"dirtyChannels", "chDirty",
			"activeRouters", "activeNICs",
			"NICs", "Routers", "Controller", "faults",
		},
		[]string{
			// Construction-time wiring and configuration.
			"Mesh", "Probe", "Hook", "Trace",
			"masked",                             // the restore re-pushes claims and faults
			"chans", "credits", "ids", "nicSlab", // what channels, NICs and ID lists point into
		})
	snapshot.Register("network.channel", channel{},
		[]string{"cur", "flits"},
		[]string{"link", "next", "creditNext"}) // empty at a cycle boundary
	snapshot.Register("network.transit", transit{},
		[]string{"flit", "vc", "valid", "payload", "sum"},
		nil)
	snapshot.Register("network.activeSet", activeSet{},
		[]string{"in", "ids"},
		[]string{"cur"}) // -1 between Steps; only live mid-iteration
}
