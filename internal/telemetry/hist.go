package telemetry

import "math/bits"

// NumBuckets is the fixed log2 bucket count of latency histograms.
// Bucket i holds values v with bits.Len64(v) == i, i.e. bucket 0 is
// exactly {0}, bucket 1 is {1}, bucket i ≥ 2 is [2^(i-1), 2^i).
// Bucket NumBuckets-1 additionally absorbs everything above — with 24
// buckets the overflow threshold is ~8.4M cycles, far past any latency
// a run that has not already tripped a watchdog can produce.
const NumBuckets = 24

// Hist is a fixed-shape log2 histogram. The zero value is ready to use;
// Observe is three increments and never allocates.
type Hist struct {
	counts [NumBuckets]int64
}

// Observe records one sample. Negative values clamp into bucket 0 (they
// cannot occur for latencies; clamping keeps the method total).
func (h *Hist) Observe(v int64) {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
		if b >= NumBuckets {
			b = NumBuckets - 1
		}
	}
	h.counts[b]++
}

// BucketUpper reports the exclusive upper bound of bucket b (the
// Prometheus "le" edge is BucketUpper-1, inclusive). The last bucket is
// unbounded.
func BucketUpper(b int) int64 {
	if b >= NumBuckets-1 {
		return int64(1) << 62 // effectively +Inf
	}
	if b == 0 {
		return 1
	}
	return int64(1) << b
}
