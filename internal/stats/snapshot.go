package stats

import (
	"math"

	"repro/internal/snapshot"
)

// SnapshotState and RestoreState walk state; a restore decodes into a
// collector built with the same window.
func (c *Collector) SnapshotState(w *snapshot.Writer) { c.state(w.State()) }
func (c *Collector) RestoreState(r *snapshot.Reader)  { c.state(r.State()) }

// state walks the collector's latency histogram, sums and counters; a
// restore recounts samples. A histogram past denseCap, a count past
// uint32 or an overflow list out of order or below denseCap is corrupt.
func (c *Collector) state(s snapshot.State) {
	snapshot.Slice(s, &c.dense, denseCap, "stats: histogram length", func(s snapshot.State, n *uint32) {
		v := uint64(*n)
		if snapshot.Uint(s, &v); !s.Decoding() {
			return
		}
		if v > math.MaxUint32 {
			s.Fail("stats: a latency counted %d times", v)
		}
		*n, c.samples = uint32(v), c.samples+int64(v)
	})
	last := int64(denseCap)
	snapshot.Slice(s, &c.overflow, math.MaxInt, "stats: overflow length", func(s snapshot.State, lat *int64) {
		if snapshot.Int(s, lat); !s.Decoding() {
			return
		}
		if *lat < last {
			s.Fail("stats: overflow latency %d out of place", *lat)
		}
		last, c.samples = *lat, c.samples+1
	})
	snapshot.Int(s, &c.latSum, &c.fastN, &c.fastSum, &c.regSum, &c.regOnlyN, &c.regOnlySum, &c.created,
		&c.ejectedWindow, &c.flitsWindow, &c.regularPkts, &c.fastPkts, &c.droppedPkts)
	snapshot.Ints(s, c.perClassEjects[:])
	snapshot.Int(s, &c.allEjects, &c.allFlits, &c.allLatSum, &c.allLatSamples)
}

func init() {
	snapshot.Register("stats.Collector", Collector{},
		[]string{"dense", "overflow", "latSum", "fastN", "fastSum", "regSum",
			"regOnlyN", "regOnlySum", "created",
			"ejectedWindow", "flitsWindow", "regularPkts", "fastPkts",
			"droppedPkts", "perClassEjects",
			"allEjects", "allFlits", "allLatSum", "allLatSamples"},
		// samples is the histogram's total, recounted by a restore.
		[]string{"Nodes", "MeasStart", "MeasEnd", "samples"})
}

var _ snapshot.Stater = (*Collector)(nil)
