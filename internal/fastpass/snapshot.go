package fastpass

import (
	"math"

	"repro/internal/snapshot"
	"repro/internal/topology"
)

// SnapshotState and RestoreState walk state; a restore decodes into a
// freshly attached controller.
func (c *Controller) SnapshotState(w *snapshot.Writer) { c.state(w.State()) }
func (c *Controller) RestoreState(r *snapshot.Reader)  { c.state(r.State()) }

// state walks the controller's mutable state: per-column flights (paths
// as link IDs — pointers into the mesh's link table are re-resolved on
// restore), lane cooldowns, scan cursors, the regeneration queue, the
// activity counters and the healing state.
func (c *Controller) state(s snapshot.State) {
	links := c.mesh.Links()
	for col := range c.flights {
		f := c.flights[col]
		if !s.Present(f != nil) {
			if s.Decoding() {
				c.flights[col] = nil
			}
			continue
		}
		if s.Decoding() {
			f = &c.flightSlots[col]
			*f = flight{col: col, path: f.path[:0]}
			c.flights[col] = f
		}
		snapshot.Int(s, &f.prime)
		s.Packet(&f.pkt)
		snapshot.Int(s, &f.state)
		snapshot.Slice(s, &f.path, math.MaxInt, "flight path length", func(s snapshot.State, l **topology.Link) {
			id := -1 // a decoding Slice hands over cleared elements
			if *l != nil {
				id = (*l).ID
			}
			if snapshot.Int(s, &id); s.Decoding() && id >= 0 && id < len(links) {
				*l = &links[id]
			} else if s.Decoding() {
				s.Fail("flight path link %d outside topology (%d links)", id, len(links))
			}
		})
		snapshot.Int(s, &f.start)
		s.Bool(&f.rejected, &f.holder)
	}
	snapshot.Ints(s, c.laneCool)
	snapshot.Ints(s, c.scanPtr)
	snapshot.Slice(s, &c.regenQ, math.MaxInt, "regeneration queue", func(s snapshot.State, e *regenEntry) {
		s.Packet(&e.pkt)
		snapshot.Int(s, &e.readyAt)
	})
	k := &c.Counters
	snapshot.Int(s, &k.Promoted, &k.FastEjects, &k.Rejections, &k.Parked, &k.Drops, &k.Regens, &k.Heals, &k.HealFails)
	// Healing state. The healed walk is encoded explicitly (not
	// re-derived from the injector on restore): the permanent-failure
	// generation may have advanced again since the heal — mid-drain —
	// so "the injector's current dead set" is not "the walk's dead set".
	snapshot.Uint(s, &c.appliedGen)
	s.Bool(&c.draining, &c.healFailed)
	if c.lanes != nil {
		c.lanes.state(s)
	} else if s.Present(false) || s.Present(false) { // no walk, no landing registers
		s.Fail("healed lanes in a checkpoint of a controller built without Healing")
	}
	// deadLink/deadCount are rebuilt from the injector in the first
	// PreCycle after a restore — every subsystem, the injector included,
	// is restored by the time stepping resumes.
	if s.Decoding() {
		c.restored = true
	}
}

// state walks the engine: the walk, each lane's head position and ride,
// and the landing registers. A restore rebuilds the lanes through reset
// after checking what a hostile blob could turn into a panic: the walk
// must be a closed chain of distinct links (two lanes would otherwise
// claim one link), heads must keep Install's spacing on it, and scan
// cursors must name a network buffer.
func (l *WalkLanes) state(s snapshot.State) {
	if s.Present(l.Active()) {
		var walk []int
		if !s.Decoding() {
			walk = l.walk
		}
		snapshot.Slice(s, &walk, len(l.links), "healed walk length", func(s snapshot.State, id *int) {
			if snapshot.Int(s, id); s.Decoding() && (*id < 0 || *id >= len(l.links)) {
				s.Fail("healed walk link %d outside topology (%d links)", *id, len(l.links))
			}
		})
		lanes := s.Len(len(l.lanes), len(walk), "healed lane count")
		if s.Decoding() && s.Err() == nil && len(walk) == 0 {
			s.Fail("healed walk of no links")
		}
		if s.Err() != nil {
			return
		}
		if s.Decoding() {
			seen := make([]bool, len(l.links))
			for i, id := range walk {
				if next := walk[(i+1)%len(walk)]; seen[id] || l.links[id].Dst != l.links[next].Src {
					s.Fail("healed walk position %d: link %d repeats or does not lead to link %d", i, id, next)
					return
				}
				seen[id] = true
			}
			l.reset(walk, lanes)
		}
		buffers := max(1, (len(l.occ)-1)*l.netVCs)
		for i := 0; i < lanes; i++ {
			ls := &l.lanes[i]
			snapshot.Int(s, &l.pos[i])
			if s.Present(ls.pkt != nil) {
				s.Packet(&ls.pkt)
				snapshot.Int(s, &ls.dstCountdown, &ls.progress)
			}
			snapshot.Int(s, &ls.scanPtr)
			if p := l.pos[i]; s.Decoding() && (p < 0 || p >= len(walk) || p != (l.pos[0]+l.spacing(i))%len(walk)) {
				s.Fail("healed lane %d at position %d of a %d-link walk breaks Install's spacing", i, p, len(walk))
			}
			if s.Decoding() && (ls.scanPtr < 0 || ls.scanPtr >= buffers) {
				s.Fail("healed lane %d scan cursor %d outside %d network buffers", i, ls.scanPtr, buffers)
			}
		}
	} else if s.Decoding() {
		l.reset(nil, 0)
	}
	if !s.Present(true) {
		s.Fail("checkpoint of a healing controller carries no landing registers")
		return
	}
	for node := range l.landing {
		snapshot.Packets(s, &l.landing[node], "landing register")
	}
}

func init() {
	snapshot.Register("fastpass.Controller", Controller{},
		[]string{"flights", "flightSlots", "laneCool", "scanPtr", "regenQ", "Counters",
			"appliedGen", "draining", "healFailed", "lanes"},
		[]string{
			// Wiring and configuration from Attach.
			"net", "mesh", "sched", "prm", "OnDrop",
			// Per-PreCycle and per-heal scratch, rewritten before every read.
			"scanBuf", "pathBuf", "walker",
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
			// arrivals/arrStart are a pure function of walk, rebuilt on
			// restore; scan and occ are per-pickup scratch.
			"arrivals", "arrStart", "scan", "occ",
		})
	snapshot.Register("fastpass.walkLane", walkLane{},
		[]string{"pkt", "dstCountdown", "progress", "scanPtr"},
		nil)
}

// interface check: the network dispatches controller state through the
// Stater assertion.
var _ snapshot.Stater = (*Controller)(nil)
