// Package stats collects the measurements behind the paper's figures:
// average packet latency, 99th-percentile tail latency (Fig. 12),
// throughput in packets/node/cycle (Figs. 7 and 8), the regular vs
// bufferless latency split of FastPass packets (Fig. 9), and the
// regular / FastPass / dropped packet-type breakdown (Fig. 13).
package stats

import (
	"math"
	"slices"

	"repro/internal/message"
	"repro/internal/spare"
)

// Collector accumulates per-packet results. Packets *created* inside the
// measurement window [MeasStart, MeasEnd) contribute latency samples;
// packets *ejected* inside the window contribute to throughput. The
// usual warmup → measure → drain methodology wires both.
//
// Every statistic the figures read is a function of counts and sums, so
// the collector keeps those and no per-packet record: measured
// latencies live in an exact counting histogram (nearest rank is a walk
// over the counts), and the Fig. 9 split is three running sums.
type Collector struct {
	Nodes              int
	MeasStart, MeasEnd int64

	// dense[l] counts measured packets of latency l < denseCap; it grows
	// on demand to one past the largest latency seen. overflow holds the
	// latencies ≥ denseCap, sorted.
	dense    []uint32
	overflow []int64
	samples  int64 // len(overflow) + Σ dense, recomputed on restore
	latSum   int64
	// fastN measured FastPass packets spent fastSum cycles bufferless and
	// regSum (latency − FastCycles) buffered; regOnlyN never-promoted
	// packets took regOnlySum cycles (Fig. 9's "regular packets").
	fastN, fastSum, regSum int64
	regOnlyN, regOnlySum   int64

	created        int64
	ejectedWindow  int64
	flitsWindow    int64
	regularPkts    int64
	fastPkts       int64
	droppedPkts    int64
	perClassEjects [message.NumClasses]int64

	// Run-lifetime accumulators, counted on every ejection regardless of
	// the measurement window. These back the windowed telemetry readout
	// (WindowCounters), which needs monotone cumulative values it can
	// delta per window — the [MeasStart, MeasEnd) gate above would leave
	// warmup and drain windows empty.
	allEjects     int64
	allFlits      int64
	allLatSum     int64
	allLatSamples int64
}

// denseCap bounds the counting histogram at 256 KB; latencies past it
// (a run this congested has long been marked saturated) go to the
// sorted overflow list, so quantiles stay exact at any latency.
const denseCap = 1 << 16

// New creates a collector for a network of the given size measuring the
// window [measStart, measEnd).
func New(nodes int, measStart, measEnd int64) *Collector {
	return &Collector{Nodes: nodes, MeasStart: measStart, MeasEnd: measEnd, dense: spareDense.Take(0)}
}

// spareDense holds the histograms that finished runs released.
var spareDense spare.Store[uint32]

// Release hands the latency histogram to a later New in the process.
// Nothing may use c afterwards.
func (c *Collector) Release() {
	spareDense.Put(c.dense)
	*c = Collector{}
}

// inWindow reports whether a cycle falls in the measurement window.
func (c *Collector) inWindow(cycle int64) bool {
	return cycle >= c.MeasStart && cycle < c.MeasEnd
}

// OnCreate observes packet creation (tagging).
func (c *Collector) OnCreate(pkt *message.Packet) {
	if c.inWindow(pkt.CreateTime) {
		c.created++
	}
}

// OnEject observes a packet leaving the network.
func (c *Collector) OnEject(pkt *message.Packet) {
	c.allEjects++
	c.allFlits += int64(pkt.Len)
	c.allLatSum += pkt.Latency()
	c.allLatSamples++
	if c.inWindow(pkt.EjectTime) {
		c.ejectedWindow++
		c.flitsWindow += int64(pkt.Len)
		c.perClassEjects[pkt.Class]++
	}
	if !c.inWindow(pkt.CreateTime) {
		return
	}
	lat := pkt.Latency()
	c.addLatency(lat)
	switch {
	case pkt.Dropped > 0:
		c.droppedPkts++
	case pkt.Kind == message.FastPass:
		c.fastPkts++
	default:
		c.regularPkts++
	}
	if pkt.Kind == message.FastPass {
		c.fastN++
		c.fastSum += pkt.FastCycles
		c.regSum += lat - pkt.FastCycles
	} else {
		c.regOnlyN++
		c.regOnlySum += lat
	}
}

// addLatency counts one measured latency.
func (c *Collector) addLatency(lat int64) {
	c.samples++
	c.latSum += lat
	if lat >= denseCap {
		i, _ := slices.BinarySearch(c.overflow, lat)
		c.overflow = slices.Insert(c.overflow, i, lat)
		return
	}
	if n := int(lat) + 1 - len(c.dense); n > 0 {
		c.dense = append(c.dense, make([]uint32, n)...)
	}
	c.dense[lat]++
}

// nth returns the k-th smallest measured latency (0-based, k <
// samples): a walk over the dense counts, then the overflow list.
func (c *Collector) nth(k int64) int64 {
	for lat, n := range c.dense {
		if k < int64(n) {
			return int64(lat)
		}
		k -= int64(n)
	}
	return c.overflow[k]
}

// RegularMean is the mean latency of measured packets that were never
// promoted to FastPass.
func (c *Collector) RegularMean() float64 { return mean(c.regOnlySum, c.regOnlyN) }

// Samples reports the number of measured latency samples.
func (c *Collector) Samples() int { return int(c.samples) }

// MeasuredCreated reports packets created inside the window.
func (c *Collector) MeasuredCreated() int64 { return c.created }

// MeanLatency is the average packet latency over measured packets, or
// NaN with no samples.
func (c *Collector) MeanLatency() float64 { return mean(c.latSum, c.samples) }

// Percentile returns the p-quantile (0 < p <= 1) of measured latencies
// by nearest-rank, or NaN with no samples or a p outside (0, 1] (a
// bogus p used to clamp silently onto the min or max sample — an easy
// way to plot garbage without noticing). Fig. 12 uses p = 0.99.
func (c *Collector) Percentile(p float64) float64 {
	if c.samples == 0 || math.IsNaN(p) || p <= 0 || p > 1 {
		return math.NaN()
	}
	// With p in (0, 1], ceil(p*n)-1 is always a valid rank.
	return float64(c.nth(int64(math.Ceil(p*float64(c.samples))) - 1))
}

// MinDelivered is the fraction of measured packets a run must deliver
// not to count as saturated.
const MinDelivered = 0.9

// CertainSaturated reports whether, after cycle completed cycles, no
// later ejection can save the run from the saturation verdict: fewer
// than MinDelivered of the measured packets delivered, or their mean
// latency above satLat. Past MeasEnd every measured packet exists and
// each still out will have waited at least a = cycle − MeasEnd cycles
// (one fewer than the least it can: safe by one). Reaching MinDelivered
// needs need more of the rest = created − samples; with m more, the mean
// is at least f(m) = (ΣL + m·a)/(samples + m), monotone in m, so f(need)
// and f(rest) bound the mean of every outcome the count would pass.
// need ≤ rest always: every measured packet may still arrive. O(1).
// With nothing measured f is NaN, and nothing is certain.
func (c *Collector) CertainSaturated(cycle int64, satLat float64) bool {
	if cycle < c.MeasEnd {
		return false
	}
	// k is the least delivered count the verdict's own division passes;
	// the truncated product starts at or below it.
	k := int64(MinDelivered * float64(c.created))
	for float64(k)/float64(c.created) < MinDelivered {
		k++
	}
	a, need, rest := cycle-c.MeasEnd, max(k-c.samples, 0), c.created-c.samples
	f := func(m int64) float64 { return float64(c.latSum+m*a) / float64(c.samples+m) }
	return f(need) > satLat && f(rest) > satLat
}

// Throughput is the accepted traffic in packets/node/cycle during the
// window.
func (c *Collector) Throughput() float64 {
	w := c.MeasEnd - c.MeasStart
	if w <= 0 || c.Nodes == 0 {
		return 0
	}
	return float64(c.ejectedWindow) / float64(c.Nodes) / float64(w)
}

// FlitThroughput is the accepted traffic in flits/node/cycle.
func (c *Collector) FlitThroughput() float64 {
	w := c.MeasEnd - c.MeasStart
	if w <= 0 || c.Nodes == 0 {
		return 0
	}
	return float64(c.flitsWindow) / float64(c.Nodes) / float64(w)
}

// Breakdown reports the regular / FastPass / dropped fractions of
// measured packets (Fig. 13). Fractions sum to 1 when any packets were
// measured.
func (c *Collector) Breakdown() (regular, fast, dropped float64) {
	total := float64(c.regularPkts + c.fastPkts + c.droppedPkts)
	if total == 0 {
		return 0, 0, 0
	}
	return float64(c.regularPkts) / total, float64(c.fastPkts) / total, float64(c.droppedPkts) / total
}

// FastSplit reports the mean regular (buffered) and FastPass
// (bufferless) latency components of measured FastPass packets (Fig. 9).
func (c *Collector) FastSplit() (regular, fast float64) {
	return mean(c.regSum, c.fastN), mean(c.fastSum, c.fastN)
}

// Cumulative is the run-lifetime readout behind windowed telemetry:
// monotone counters over every ejection, independent of the measurement
// window, so a telemetry layer can delta them per window without
// duplicating the collector's accounting.
type Cumulative struct {
	Ejects, Flits      int64
	LatSum, LatSamples int64
}

// WindowCounters reports the run-lifetime cumulative counters.
func (c *Collector) WindowCounters() Cumulative {
	return Cumulative{
		Ejects:     c.allEjects,
		Flits:      c.allFlits,
		LatSum:     c.allLatSum,
		LatSamples: c.allLatSamples,
	}
}

// mean is sum/n, or NaN with no samples. Integer sums do not depend on
// the order the samples arrived in, so this is bit-equal to averaging a
// slice of them.
func mean(sum, n int64) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(n)
}
