package router

import "repro/internal/snapshot"

// SnapshotState encodes one VC: buffered flit count plus every resident
// entry front-to-back.
func (v *VC) SnapshotState(w *snapshot.Writer) {
	w.Int(int(v.flits))
	w.Int(v.entries.Len())
	for i := 0; i < v.entries.Len(); i++ {
		e := v.entries.Ptr(i)
		w.Packet(e.Pkt)
		w.Int(int(e.Arrived))
		w.Int(int(e.Sent))
		w.Bool(e.Allocated)
		w.Int(int(e.OutPort))
		w.Int(int(e.OutVC))
		w.I64(e.EnqueueCycle)
		w.I64(e.LastMove)
	}
}

// RestoreState decodes into a freshly built (empty) VC. Entries are
// reconstructed through insert so the owning router's resident counter
// and occupancy mask come out right without being encoded separately;
// headChanged then takes the alloc bit from the decoded head, whose route
// and blocked bit come back at its next VA attempt.
func (v *VC) RestoreState(r *snapshot.Reader) {
	for v.entries.Len() > 0 {
		v.remove(0)
	}
	flits := r.Int()
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		e := v.insert(i, r.Packet(), 0, 0)
		e.Arrived = int16(r.Int())
		e.Sent = int16(r.Int())
		e.Allocated = r.Bool()
		e.OutPort = int8(r.Int())
		e.OutVC = int16(r.Int())
		e.EnqueueCycle = r.I64()
		e.LastMove = r.I64()
	}
	v.flits = int32(flits)
	v.headChanged()
}

// SnapshotState encodes the router's mutable state: credit view,
// per-class ejection locks, every input VC, and the round-robin
// arbiter cursors (arbitration history is state — a restored run must
// grant in the same rotation order).
func (rt *Router) SnapshotState(w *snapshot.Writer) {
	for p := 1; p < nPorts; p++ {
		for v := range rt.Inputs[p].VCs {
			w.Bool(rt.vcFree[p]>>v&1 != 0)
		}
	}
	for c := range rt.ejecting {
		w.Bool(rt.ejecting[c])
	}
	for p := range rt.Inputs {
		vcs := rt.Inputs[p].VCs
		for v := range vcs {
			vcs[v].SnapshotState(w)
		}
	}
	for _, a := range rt.saInArb {
		w.Int(int(a.next))
	}
	for _, a := range rt.saOutArb {
		w.Int(int(a.next))
	}
	w.Int(int(rt.portTie.next))
	w.I64(rt.FlitsRouted)
	w.I64(rt.SwitchStalls)
}

// RestoreState decodes into a freshly built router.
func (rt *Router) RestoreState(r *snapshot.Reader) {
	for p := 1; p < nPorts; p++ {
		rt.vcFree[p] = 0
		for v := range rt.Inputs[p].VCs {
			if r.Bool() {
				rt.vcFree[p] |= 1 << v
			}
		}
	}
	for c := range rt.ejecting {
		rt.ejecting[c] = r.Bool()
	}
	for p := range rt.Inputs {
		vcs := rt.Inputs[p].VCs
		for v := range vcs {
			vcs[v].RestoreState(r)
		}
	}
	for p := range rt.saInArb {
		rt.saInArb[p].next = uint8(r.Int())
	}
	for p := range rt.saOutArb {
		rt.saOutArb[p].next = uint8(r.Int())
	}
	rt.portTie.next = uint8(r.Int())
	rt.FlitsRouted = r.I64()
	rt.SwitchStalls = r.I64()
}

func init() {
	snapshot.Register("router.Router", Router{},
		[]string{
			"vcFree", "ejecting", "Inputs",
			// resident and occ are reconstructed by VC restore through
			// the owner pointer (one insert per rebuilt entry).
			"resident", "occ",
			"saInArb", "saOutArb", "portTie",
			"FlitsRouted", "SwitchStalls",
		},
		[]string{
			// Wiring and sizing from New.
			"ID", "Mesh", "Cfg", "Env", "tab", "outLinks", "inLinks",
			// Scratch, rewritten before every read.
			"routeBuf",
			// Re-derived (alloc) or cleared (blocked) by VC restore.
			"alloc", "blocked", "gained",
		})
	snapshot.Register("router.InputUnit", InputUnit{}, []string{"VCs"}, nil)
	snapshot.Register("router.VC", VC{},
		[]string{"entries", "flits"},
		// route is a cache of the head's routing, recomputed when 0.
		[]string{"CapFlits", "MaxPkts", "owner", "port", "idx", "route"})
	snapshot.Register("router.Entry", Entry{},
		[]string{"Pkt", "Arrived", "Sent", "Allocated", "OutPort", "OutVC", "EnqueueCycle", "LastMove"},
		nil)
	snapshot.Register("router.RRArbiter", RRArbiter{},
		[]string{"next"},
		[]string{"n"})
}
