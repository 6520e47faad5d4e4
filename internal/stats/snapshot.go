package stats

import (
	"math"

	"repro/internal/snapshot"
)

// SnapshotState encodes the collector's latency histogram, sums and
// counters.
func (c *Collector) SnapshotState(w *snapshot.Writer) {
	w.Int(len(c.dense))
	for _, n := range c.dense {
		w.U64(uint64(n))
	}
	w.Int(len(c.overflow))
	for _, lat := range c.overflow {
		w.I64(lat)
	}
	w.I64(c.latSum)
	w.I64(c.fastN)
	w.I64(c.fastSum)
	w.I64(c.regSum)
	w.I64(c.regOnlyN)
	w.I64(c.regOnlySum)
	w.I64(c.created)
	w.I64(c.ejectedWindow)
	w.I64(c.flitsWindow)
	w.I64(c.regularPkts)
	w.I64(c.fastPkts)
	w.I64(c.droppedPkts)
	for _, v := range c.perClassEjects {
		w.I64(v)
	}
	w.I64(c.allEjects)
	w.I64(c.allFlits)
	w.I64(c.allLatSum)
	w.I64(c.allLatSamples)
}

// RestoreState decodes into a collector built with the same window. A
// histogram past denseCap, a count past uint32 or an overflow list out
// of order or below denseCap is corrupt.
func (c *Collector) RestoreState(r *snapshot.Reader) {
	c.samples = 0
	n := r.Int()
	if n < 0 || n > denseCap {
		r.Fail("stats: histogram of %d latencies, cap %d", n, denseCap)
		return
	}
	c.dense = c.dense[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		v := r.U64()
		if v > math.MaxUint32 {
			r.Fail("stats: latency %d counted %d times", i, v)
		}
		c.dense = append(c.dense, uint32(v))
		c.samples += int64(v)
	}
	n = r.Int()
	c.overflow = c.overflow[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		lat := r.I64()
		if lat < denseCap || i > 0 && lat < c.overflow[i-1] {
			r.Fail("stats: overflow latency %d out of place", lat)
		}
		c.overflow = append(c.overflow, lat)
		c.samples++
	}
	c.latSum = r.I64()
	c.fastN = r.I64()
	c.fastSum = r.I64()
	c.regSum = r.I64()
	c.regOnlyN = r.I64()
	c.regOnlySum = r.I64()
	c.created = r.I64()
	c.ejectedWindow = r.I64()
	c.flitsWindow = r.I64()
	c.regularPkts = r.I64()
	c.fastPkts = r.I64()
	c.droppedPkts = r.I64()
	for i := range c.perClassEjects {
		c.perClassEjects[i] = r.I64()
	}
	c.allEjects = r.I64()
	c.allFlits = r.I64()
	c.allLatSum = r.I64()
	c.allLatSamples = r.I64()
}

func init() {
	snapshot.Register("stats.Collector", Collector{},
		[]string{"dense", "overflow", "latSum", "fastN", "fastSum", "regSum",
			"regOnlyN", "regOnlySum", "created",
			"ejectedWindow", "flitsWindow", "regularPkts", "fastPkts",
			"droppedPkts", "perClassEjects",
			"allEjects", "allFlits", "allLatSum", "allLatSamples"},
		// samples is the histogram's total, recounted by RestoreState.
		[]string{"Nodes", "MeasStart", "MeasEnd", "samples"})
}

var _ snapshot.Stater = (*Collector)(nil)
