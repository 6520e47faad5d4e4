package snapshot

import (
	"math/rand"
	"sync"
	"unsafe"

	"repro/internal/spare"
)

// The standard library's seeded source is an additive lagged-Fibonacci
// generator, x[k] = x[k-607] + x[k-273] (mod 2^64): its state is its
// last 607 outputs.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// CountingSource is math/rand's seeded stream — every golden seed in the
// repo depends on that — hosted here so it can count and scan its own
// draws: (seed, draws) fully determines the stream position, and restore
// re-seeds and discards the recorded number of draws. No rand.Source is
// held after seeding.
//
// The counter deliberately lives at the Source64 level, not the
// rand.Rand level: derived methods (Float64's rounding redraw, Intn's
// rejection loop) may consume a variable number of source draws, and
// counting the actual draws is what makes replay exact.
type CountingSource struct {
	vec [rngLen]uint64
	// A draw steps both cursors down (wrapping): vec[feed] += vec[tap].
	tap, feed int
	n         uint64
}

// seeder is the one standard-library source every seeding reads, under
// seederMu (4.9 KB: a sync.Pool loses it to the GC and allocates it anew).
var seederMu sync.Mutex
var seeder = rand.NewSource(1).(rand.Source64)

// spareSources holds the sources that finished runs released: the
// synthetic run's, the fault injector's and the protocol engine's.
var spareSources spare.Store[CountingSource]

// NewCountingSource returns a source seeded like rand.NewSource(seed),
// a released one when there is one.
func NewCountingSource(seed int64) *CountingSource {
	s := &spareSources.Take(1)[0]
	s.Seed(seed)
	return s
}

// Release hands s to a later NewCountingSource in the process. Its
// owner calls it once its run has ended; nothing may draw from s, or
// from a rand.Rand over it, afterwards.
func (s *CountingSource) Release() { spareSources.Put(unsafe.Slice(s, 1)) }

// Seed reseeds the stream and resets the draw counter. The library's
// first 607 outputs overwrite every slot once and leave the cursors where
// seeding put them; undoing those draws, last first, recovers the seeded
// state without a copy of the library's seeding table.
func (s *CountingSource) Seed(seed int64) {
	const gap = rngLen - rngTap // feed slot = tap slot + gap (mod 607)
	seederMu.Lock()
	seeder.Seed(seed)
	for tap := rngLen - 1; tap >= 0; tap-- {
		s.vec[(tap+gap)%rngLen] = seeder.Uint64()
	}
	seederMu.Unlock()
	for tap := 0; tap < rngLen; tap++ {
		s.vec[(tap+gap)%rngLen] -= s.vec[tap]
	}
	s.tap, s.feed, s.n = 0, gap, 0
}

// Uint64 draws the next value of the stream.
func (s *CountingSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	s.n++
	return x
}

// Int63 draws the next value of the stream, as rand.Source does.
func (s *CountingSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Draws reports how many source values were consumed since seeding.
func (s *CountingSource) Draws() uint64 { return s.n }

// Skip fast-forwards the stream by discarding n draws (restore path),
// down the same two plain windows as ScanBelow.
func (s *CountingSource) Skip(n uint64) {
	tap, feed := s.tap, s.feed
	s.n += n
	for n > 0 {
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		run := min(tap, feed, int(min(n, rngLen)))
		f, t := s.vec[feed-run:feed], s.vec[tap-run:tap]
		t = t[:len(f)]
		for i := len(f) - 1; i >= 0; i-- {
			f[i] += t[i]
		}
		tap, feed, n = tap-run, feed-run, n-uint64(run)
	}
	s.tap, s.feed = tap, feed
}

// ScanBelow consumes Int63 draws until one is below thr (hit) or max
// draws have been counted, and reports how many counted draws came
// before the hit. A draw at or above redo >= thr consumes a value
// without counting: rand.Float64 would round it to 1.0 and redraw. That
// is a run of max trials `rng.Float64() < rate` cut at the first success.
//
//nocvet:hot
func (s *CountingSource) ScanBelow(thr, redo int64, max int) (skipped int, hit bool) {
	tap, feed, span := s.tap, s.feed, uint64(redo-thr)
	for skipped < max && !hit {
		// Up to the nearer cursor wrap (and the draws still wanted) the
		// recurrence runs down two plain windows.
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		run := min(tap, feed, max-skipped)
		f, t := s.vec[feed-run:feed], s.vec[tap-run:tap]
		t = t[:len(f)] // same length: lets the loop below drop its bounds checks
		i := len(f) - 1
		for ; i >= 0; i-- {
			x := f[i] + t[i]
			f[i] = x
			if v := int64(x & rngMask); uint64(v-thr) >= span { // v < thr || v >= redo
				hit = v < thr
				run -= i // the draws made: misses, then this one
				skipped--
				break
			}
		}
		tap, feed, skipped = tap-run, feed-run, skipped+run
		s.n += uint64(run)
	}
	s.tap, s.feed = tap, feed
	return skipped, hit
}
