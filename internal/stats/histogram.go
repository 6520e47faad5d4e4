package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram summarises the measured latency distribution with
// power-of-two buckets — the compact form the paper's tail-latency
// discussion (Fig. 12) needs, and what cmd/noctrace prints.
type Histogram struct {
	// Buckets[i] counts samples in [2^i, 2^(i+1)).
	Buckets []int64
	// Min, Max, Count summarise the raw samples.
	Min, Max int64
	Count    int64
}

// LatencyHistogram builds the histogram of the collector's measured
// latencies.
func (c *Collector) LatencyHistogram() Histogram {
	h := Histogram{Min: math.MaxInt64}
	add := func(lat, n int64) {
		bucket := 0
		for v := lat; v > 1; v >>= 1 {
			bucket++
		}
		for len(h.Buckets) <= bucket {
			h.Buckets = append(h.Buckets, 0)
		}
		h.Buckets[bucket] += n
		h.Count += n
		h.Min = min(h.Min, lat)
		h.Max = max(h.Max, lat)
	}
	for lat, n := range c.dense {
		if n > 0 {
			add(int64(lat), int64(n))
		}
	}
	for _, lat := range c.overflow {
		add(lat, 1)
	}
	if h.Count == 0 {
		h.Min = 0
	}
	return h
}

// String renders the histogram with proportional bars.
func (h Histogram) String() string {
	if h.Count == 0 {
		return "histogram: no samples\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "latency histogram: %d samples, min %d, max %d\n", h.Count, h.Min, h.Max)
	var peak int64
	for _, v := range h.Buckets {
		if v > peak {
			peak = v
		}
	}
	for i, v := range h.Buckets {
		if v == 0 {
			continue
		}
		lo := int64(1) << i
		hi := int64(1)<<(i+1) - 1
		bar := strings.Repeat("█", int(1+39*v/peak))
		fmt.Fprintf(&b, "  [%6d,%6d] %8d %s\n", lo, hi, v, bar)
	}
	return b.String()
}

// Quantiles returns the given quantiles of the measured latencies by
// nearest rank. A quantile outside (0, 1] — or any quantile of an empty
// collector — is NaN rather than a silently clamped sample.
func (c *Collector) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = c.Percentile(q)
	}
	return out
}
