package network

import (
	"math"

	"repro/internal/snapshot"
)

// Snapshots are taken between Steps, at a cycle boundary. The engine
// guarantees a set of invariants there that shrink the state surface:
// every channel's next stage is invalid and its credit pipe drained
// only after shift ran — but shift runs inside Step, so both hold; no
// active-set iteration is running (cur == -1). Those fields are
// transient in the manifest. Claims from the previous cycle
// are still set (beginCycle clears them at the top of the next Step),
// so they are encoded even though nothing will read them before the
// clear — encoding exact state is cheaper than proving it dead.
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

// state walks the cycle engine state, channels, claims (a restore puts
// them back into the routers' masks as well as the arrays), active sets,
// NICs, routers, the attached controller (when it carries state) and the
// fault injector (when attached).
func (n *Network) state(s snapshot.State) {
	snapshot.Int(s, &n.cycle, &n.FlitsOnLinks)
	links, nodes, netVCs := len(n.channels), len(n.Routers), n.Routers[0].Cfg.NetVCs()
	for _, ch := range n.channels {
		// Both link stages; a restore zeroes each first.
		for _, t := range [...]*transit{&ch.cur, &ch.next} {
			if s.Decoding() {
				*t = transit{}
			}
			if s.Bool(&t.valid); t.valid {
				s.Packet(&t.flit.Pkt)
				snapshot.Int(s, &t.flit.Seq)
				index(s, &t.vc, "flit VC", netVCs)
				snapshot.Uint(s, &t.payload)
				snapshot.Byte(s, &t.sum)
			}
		}
		if s.Decoding() {
			ch.creditNext = ch.creditNext[:0]
		}
		indices(s, "credit VC", netVCs, len(ch.creditNext), func(i int) int { return ch.creditNext[i] }, func(vc int) bool {
			ch.creditNext = append(ch.creditNext, vc)
			return len(ch.creditNext) <= netVCs // a VC frees once a cycle
		})
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
		n.markChannel(id)
		return true
	})
	n.active(s, "active router", &n.activeRouters)
	n.active(s, "active NIC", &n.activeNICs)
	for _, nc := range n.NICs {
		s.Walk(nc)
	}
	for _, rt := range n.Routers {
		s.Walk(rt)
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
			"Mesh", "Probe", "Hook",
			"masked", // the restore re-pushes claims and faults
		})
	snapshot.Register("network.channel", channel{},
		[]string{"cur", "next", "creditNext", "flits"},
		[]string{"link"})
	snapshot.Register("network.transit", transit{},
		[]string{"flit", "vc", "valid", "payload", "sum"},
		nil)
	snapshot.Register("network.activeSet", activeSet{},
		[]string{"in", "ids"},
		[]string{"cur"}) // -1 between Steps; only live mid-iteration
}
