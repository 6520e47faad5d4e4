package router

import (
	"math/bits"

	"repro/internal/message"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// walkVC walks one occupied VC: its buffered flit count and entry count,
// then its entries front-to-back. A restore targets a freshly built
// (empty) VC and rebuilds the entries through insert, so the owning
// router's resident counter and occupancy mask come out right without
// being encoded; headChanged then takes the alloc and ready bits from
// the decoded head, whose route and blocked bit come back at its next VA
// attempt. It inserts each entry only while the reads before it
// succeeded, so a hostile count stops at the blob's end, and fails one
// the resumed run could not step (see checkEntry).
func walkVC(s snapshot.State, v *VC) {
	n := int32(v.entries.Len())
	if snapshot.Int(s, &v.flits, &n); s.Decoding() && n < 1 {
		s.Fail("router: occupied VC %d/%d holds %d packets", v.port, v.idx, n)
	}
	for i := 0; i < int(n) && s.Err() == nil; i++ {
		if s.Decoding() {
			v.insert(i, nil, 0, 0)
		}
		e := v.entries.Ptr(i)
		s.Packet(&e.Pkt)
		snapshot.Int(s, &e.Arrived, &e.Sent)
		s.Bool(&e.Allocated)
		snapshot.Int(s, &e.OutPort)
		snapshot.Int(s, &e.OutVC)
		snapshot.Int(s, &e.EnqueueCycle, &e.LastMove)
		if s.Decoding() && s.Err() == nil {
			v.checkEntry(s, e)
		}
	}
	if s.Decoding() {
		v.headChanged()
	}
}

// checkEntry fails the restore of a decoded entry that would panic or
// misroute the resumed run: flit counts outside 1 ≤ Arrived ≤ length
// and 0 ≤ Sent ≤ Arrived, flits sent unallocated, an ejection on another
// class's VC, or a grant of an output the router lacks.
func (v *VC) checkEntry(s snapshot.State, e *Entry) {
	r := v.owner
	switch {
	case e.Pkt == nil:
		s.Fail("router: VC %d/%d entry holds no packet", v.port, v.idx)
	case e.Arrived < 1 || int(e.Arrived) > e.Pkt.Len || e.Sent < 0 || e.Sent > e.Arrived:
		s.Fail("router: VC %d/%d entry has %d of %d flits arrived, %d sent", v.port, v.idx, e.Arrived, e.Pkt.Len, e.Sent)
	case !e.Allocated && e.Sent > 0:
		s.Fail("router: VC %d/%d entry sent %d flits unallocated", v.port, v.idx, e.Sent)
	case !e.Allocated:
	case e.Out() == topology.Local && int(e.OutVC) != int(e.Pkt.Class):
		s.Fail("router: VC %d/%d ejects a class %d packet on class %d", v.port, v.idx, e.Pkt.Class, e.OutVC)
	case e.Out() != topology.Local && (e.OutPort < 0 || int(e.OutPort) >= nPorts || r.outLinks[e.OutPort] < 0 ||
		e.OutVC < 0 || int(e.OutVC) >= r.Cfg.NetVCs()):
		s.Fail("router: VC %d/%d granted port %d VC %d, which router %d lacks", v.port, v.idx, e.OutPort, e.OutVC, r.ID)
	}
}

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly built router.
func (rt *Router) SnapshotState(w *snapshot.Writer) { rt.state(w.State()) }
func (rt *Router) RestoreState(r *snapshot.Reader)  { rt.state(r.State()) }

// state walks the router: credit view and ejection locks as mask words,
// then each input port's occupancy mask followed by its occupied VCs
// only, and the round-robin arbiter cursors (arbitration history is
// state — a restored run must grant in the same rotation order).
func (rt *Router) state(s snapshot.State) {
	for p := 1; p < nPorts; p++ { // every network port has NetVCs VCs
		snapshot.Mask(s, &rt.vcFree[p], rt.Cfg.NetVCs(), "router credit")
	}
	snapshot.Mask(s, &rt.ejecting, int(message.NumClasses), "router ejection")
	for p := range rt.Inputs {
		vcs, occ := rt.Inputs[p].VCs, rt.occ[p]
		snapshot.Mask(s, &occ, len(vcs), "router occupancy")
		for ; occ != 0 && s.Err() == nil; occ &= occ - 1 {
			walkVC(s, &vcs[bits.TrailingZeros64(occ)])
		}
	}
	var next [2*nPorts + 1]*uint8
	for p := range nPorts {
		next[p], next[nPorts+p] = &rt.saInArb[p].next, &rt.saOutArb[p].next
	}
	next[2*nPorts] = &rt.portTie.next
	snapshot.Int(s, next[:]...)
	if s.Decoding() {
		for p := range nPorts {
			checkCursor(s, &rt.saInArb[p])
			checkCursor(s, &rt.saOutArb[p])
		}
		checkCursor(s, &rt.portTie)
	}
	snapshot.Int(s, &rt.FlitsRouted, &rt.SwitchStalls)
}

// checkCursor fails a decoded arbiter cursor past its requesters.
func checkCursor(s snapshot.State, a *RRArbiter) {
	if a.next >= a.n {
		s.Fail("router: arbiter cursor %d outside [0, %d)", a.next, a.n)
	}
}

func init() {
	snapshot.Register("router.Router", Router{},
		[]string{
			"vcFree", "ejecting", "Inputs",
			// occ is encoded; it and resident are rebuilt by VC restore
			// through the owner pointer (one insert per rebuilt entry).
			"resident", "occ",
			"saInArb", "saOutArb", "portTie",
			"FlitsRouted", "SwitchStalls",
		},
		[]string{
			// Wiring and sizing from New.
			"ID", "Mesh", "Cfg", "Env", "tab", "outLinks", "inLinks",
			// Scratch, rewritten before every read.
			"routeBuf",
			// Re-derived (alloc, ready) or cleared (blocked) by VC restore.
			"alloc", "blocked", "gained", "ready",
			// Pushed by the network every cycle (and at its restore).
			"Claimed", "Stalled",
		})
	snapshot.Register("router.InputUnit", InputUnit{}, []string{"VCs"}, nil)
	snapshot.Register("router.VC", VC{},
		[]string{"entries", "flits"},
		// route caches the head's routing (0: recompute); one backs entries.
		[]string{"CapFlits", "MaxPkts", "owner", "port", "idx", "route", "one"})
	snapshot.Register("router.Entry", Entry{},
		[]string{"Pkt", "Arrived", "Sent", "Allocated", "OutPort", "OutVC", "EnqueueCycle", "LastMove"},
		nil)
	snapshot.Register("router.RRArbiter", RRArbiter{},
		[]string{"next"},
		[]string{"n"})
}
