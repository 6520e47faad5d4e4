package fastpass

import "repro/internal/snapshot"

// SnapshotState encodes the controller's mutable state: per-column
// flights (paths as link IDs — pointers into the mesh's link table are
// re-resolved on restore), lane cooldowns, scan cursors, the
// regeneration queue and the activity counters.
func (c *Controller) SnapshotState(w *snapshot.Writer) {
	for col := range c.flights {
		f := c.flights[col]
		w.Bool(f != nil)
		if f == nil {
			continue
		}
		w.Int(f.prime)
		w.Packet(f.pkt)
		w.Int(f.state)
		w.Int(len(f.path))
		for _, l := range f.path {
			w.Int(l.ID)
		}
		w.I64(f.start)
		w.Bool(f.rejected)
		w.Bool(f.holder)
	}
	for _, v := range c.laneCool {
		w.I64(v)
	}
	for _, v := range c.scanPtr {
		w.Int(v)
	}
	w.Int(len(c.regenQ))
	for _, e := range c.regenQ {
		w.Packet(e.pkt)
		w.I64(e.readyAt)
	}
	w.I64(c.Counters.Promoted)
	w.I64(c.Counters.FastEjects)
	w.I64(c.Counters.Rejections)
	w.I64(c.Counters.Parked)
	w.I64(c.Counters.Drops)
	w.I64(c.Counters.Regens)
	w.I64(c.Counters.Heals)
	w.I64(c.Counters.HealFails)
	// Healing state. The healed walk is encoded explicitly (not
	// re-derived from the injector on restore): the permanent-failure
	// generation may have advanced again since the heal — mid-drain —
	// so "the injector's current dead set" is not "the walk's dead set".
	w.U64(c.appliedGen)
	w.Bool(c.draining)
	w.Bool(c.healFailed)
	if c.lanes != nil {
		c.lanes.SnapshotState(w)
	} else {
		w.Bool(false) // no walk installed
		w.Bool(false) // no landing registers
	}
}

// SnapshotState encodes the walk, each lane's head position and ride,
// and the landing registers.
func (l *WalkLanes) SnapshotState(w *snapshot.Writer) {
	w.Bool(l.Active())
	if l.Active() {
		w.Int(len(l.walk))
		for _, id := range l.walk {
			w.Int(id)
		}
		w.Int(len(l.lanes))
		for i := range l.lanes {
			ls := &l.lanes[i]
			w.Int(l.pos[i])
			w.Bool(ls.pkt != nil)
			if ls.pkt != nil {
				w.Packet(ls.pkt)
				w.Int(ls.dstCountdown)
				w.Int(ls.progress)
			}
			w.Int(ls.scanPtr)
		}
	}
	w.Bool(true)
	for _, reg := range l.landing {
		w.Int(len(reg))
		for _, p := range reg {
			w.Packet(p)
		}
	}
}

// RestoreState decodes into a freshly attached controller.
func (c *Controller) RestoreState(r *snapshot.Reader) {
	links := c.mesh.Links()
	for col := range c.flights {
		if !r.Bool() {
			c.flights[col] = nil
			continue
		}
		f := &c.flightSlots[col]
		prime := r.Int()
		pkt := r.Packet()
		state := r.Int()
		path := f.path[:0]
		n := r.Int()
		for i := 0; i < n && r.Err() == nil; i++ {
			id := r.Int()
			if id < 0 || id >= len(links) {
				r.Fail("flight path link %d outside topology (%d links)", id, len(links))
				return
			}
			path = append(path, &links[id])
		}
		*f = flight{
			col: col, prime: prime, pkt: pkt, state: state, path: path,
			start: r.I64(), rejected: r.Bool(), holder: r.Bool(),
		}
		c.flights[col] = f
	}
	for i := range c.laneCool {
		c.laneCool[i] = r.I64()
	}
	for i := range c.scanPtr {
		c.scanPtr[i] = r.Int()
	}
	n := r.Int()
	c.regenQ = c.regenQ[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		c.regenQ = append(c.regenQ, regenEntry{pkt: r.Packet(), readyAt: r.I64()})
	}
	c.Counters.Promoted = r.I64()
	c.Counters.FastEjects = r.I64()
	c.Counters.Rejections = r.I64()
	c.Counters.Parked = r.I64()
	c.Counters.Drops = r.I64()
	c.Counters.Regens = r.I64()
	c.Counters.Heals = r.I64()
	c.Counters.HealFails = r.I64()
	c.appliedGen = r.U64()
	c.draining = r.Bool()
	c.healFailed = r.Bool()
	if c.lanes != nil {
		c.lanes.RestoreState(r)
	} else if r.Bool() || r.Bool() {
		r.Fail("healed lanes in a checkpoint of a controller built without Healing")
	}
	// deadLink/deadCount are rebuilt from the injector in the first
	// PreCycle — every subsystem, the injector included, is restored by
	// the time stepping resumes.
	c.restored = true
}

// RestoreState decodes into a freshly built engine.
func (l *WalkLanes) RestoreState(r *snapshot.Reader) {
	var walk []int
	lanes := 0
	if r.Bool() {
		wn := r.Int()
		if wn < 1 || wn > len(l.links) {
			r.Fail("healed walk length %d outside topology (%d links)", wn, len(l.links))
			return
		}
		walk = make([]int, wn)
		for i := range walk {
			walk[i] = r.Int()
			if walk[i] < 0 || walk[i] >= len(l.links) {
				r.Fail("healed walk link %d outside topology (%d links)", walk[i], len(l.links))
				return
			}
		}
		if lanes = r.Int(); lanes < 0 || lanes > wn {
			r.Fail("healed lane count %d exceeds walk length %d", lanes, wn)
			return
		}
	}
	l.reset(walk, lanes)
	for i := 0; i < lanes && r.Err() == nil; i++ {
		l.pos[i] = r.Int()
		if r.Bool() {
			l.lanes[i].pkt = r.Packet()
			l.lanes[i].dstCountdown = r.Int()
			l.lanes[i].progress = r.Int()
		}
		l.lanes[i].scanPtr = r.Int()
	}
	if !r.Bool() {
		r.Fail("checkpoint of a healing controller carries no landing registers")
		return
	}
	for node := range l.landing {
		l.landing[node] = l.landing[node][:0]
		n := r.Int()
		for i := 0; i < n && r.Err() == nil; i++ {
			l.landing[node] = append(l.landing[node], r.Packet())
		}
	}
}

func init() {
	snapshot.Register("fastpass.Controller", Controller{},
		[]string{"flights", "flightSlots", "laneCool", "scanPtr", "regenQ", "Counters",
			"appliedGen", "draining", "healFailed", "lanes"},
		[]string{
			// Wiring and configuration from Attach.
			"net", "mesh", "sched", "prm", "OnDrop", "Trace",
			// Per-PreCycle scratch, rewritten before every read.
			"scanBuf", "pathBuf",
			// Mirrors of the injector's permanent-failure set, rebuilt
			// lazily in the first post-restore PreCycle.
			"deadLink", "deadCount", "restored",
		})
	snapshot.Register("fastpass.flight", flight{},
		[]string{"col", "prime", "pkt", "state", "path", "start", "rejected", "holder"},
		nil)
	snapshot.Register("fastpass.regenEntry", regenEntry{},
		[]string{"pkt", "readyAt"},
		nil)
	snapshot.Register("fastpass.Counters", Counters{},
		[]string{"Promoted", "FastEjects", "Rejections", "Parked", "Drops", "Regens",
			"Heals", "HealFails"},
		nil)
	snapshot.Register("fastpass.WalkLanes", WalkLanes{},
		[]string{"walk", "pos", "lanes", "landing"},
		[]string{
			// Wiring and configuration from NewWalkLanes.
			"host", "links", "nics", "netVCs", "InjectionOnly",
			// arrivals is a pure function of walk, rebuilt on restore;
			// scan and occ are per-pickup scratch.
			"arrivals", "scan", "occ",
		})
	snapshot.Register("fastpass.walkLane", walkLane{},
		[]string{"pkt", "dstCountdown", "progress", "scanPtr"},
		nil)
}

// interface check: the network dispatches controller state through the
// Stater assertion.
var _ snapshot.Stater = (*Controller)(nil)
