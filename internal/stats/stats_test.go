package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/message"
	"repro/internal/snapshot"
)

func eject(c *Collector, id uint64, create, eject int64, kind message.Kind, fast int64, dropped int) {
	p := message.NewPacket(id, 0, 1, message.Request, 1, create)
	p.EjectTime = eject
	p.Kind = kind
	p.FastCycles = fast
	p.Dropped = dropped
	c.OnCreate(p)
	c.OnEject(p)
}

func TestMeanAndPercentile(t *testing.T) {
	c := New(4, 0, 100)
	for i, lat := range []int64{10, 20, 30, 40} {
		eject(c, uint64(i), 10, 10+lat, message.Regular, 0, 0)
	}
	if got := c.MeanLatency(); got != 25 {
		t.Errorf("mean = %v, want 25", got)
	}
	if got := c.Percentile(0.5); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	if got := c.Percentile(0.99); got != 40 {
		t.Errorf("p99 = %v, want 40", got)
	}
	if got := c.Percentile(1.0); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
	if c.Samples() != 4 {
		t.Errorf("samples = %d", c.Samples())
	}
}

func TestEmptyCollectorNaN(t *testing.T) {
	c := New(4, 0, 100)
	if !math.IsNaN(c.MeanLatency()) || !math.IsNaN(c.Percentile(0.99)) {
		t.Error("empty collector should report NaN")
	}
	r, f, d := c.Breakdown()
	if r != 0 || f != 0 || d != 0 {
		t.Error("empty breakdown should be zeros")
	}
}

func TestWindowing(t *testing.T) {
	c := New(4, 100, 200)
	// Created before the window: no latency sample, but ejected inside:
	// counts for throughput.
	eject(c, 1, 50, 150, message.Regular, 0, 0)
	// Created inside, ejected after: latency sample, no throughput.
	eject(c, 2, 150, 250, message.Regular, 0, 0)
	// Fully outside.
	eject(c, 3, 250, 300, message.Regular, 0, 0)
	if c.Samples() != 1 {
		t.Fatalf("samples = %d, want 1", c.Samples())
	}
	if got := c.MeanLatency(); got != 100 {
		t.Errorf("mean = %v, want 100", got)
	}
	// Throughput: 1 packet over 100 cycles over 4 nodes.
	if got := c.Throughput(); math.Abs(got-1.0/400) > 1e-12 {
		t.Errorf("throughput = %v, want 0.0025", got)
	}
	if c.MeasuredCreated() != 1 {
		t.Errorf("created = %d", c.MeasuredCreated())
	}
}

func TestBreakdownAndFastSplit(t *testing.T) {
	c := New(1, 0, 1000)
	eject(c, 1, 0, 40, message.Regular, 0, 0)    // regular
	eject(c, 2, 0, 60, message.FastPass, 20, 0)  // fast: 40 reg + 20 fast
	eject(c, 3, 0, 100, message.FastPass, 30, 1) // dropped (takes precedence)
	r, f, d := c.Breakdown()
	if math.Abs(r-1.0/3) > 1e-12 || math.Abs(f-1.0/3) > 1e-12 || math.Abs(d-1.0/3) > 1e-12 {
		t.Errorf("breakdown = %v %v %v", r, f, d)
	}
	reg, fast := c.FastSplit()
	// Both FastPass packets contribute: reg components 40 and 70, fast
	// 20 and 30.
	if reg != 55 || fast != 25 {
		t.Errorf("FastSplit = %v, %v; want 55, 25", reg, fast)
	}
}

func TestFlitThroughputAndClassCounts(t *testing.T) {
	c := New(2, 0, 10)
	p := message.NewPacket(1, 0, 1, message.Response, 5, 1)
	p.EjectTime = 5
	c.OnCreate(p)
	c.OnEject(p)
	if got := c.FlitThroughput(); math.Abs(got-5.0/20) > 1e-12 {
		t.Errorf("flit throughput = %v", got)
	}
	if c.perClassEjects[message.Response] != 1 || c.perClassEjects[message.Request] != 0 {
		t.Error("per-class counts wrong")
	}
}

func TestQuantiles(t *testing.T) {
	c := New(1, 0, 1000)
	for i := int64(1); i <= 100; i++ {
		eject(c, uint64(i), 0, i, message.Regular, 0, 0)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if got, want := c.Percentile(q), 100*q; got != want {
			t.Errorf("Percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestPercentileInterleavedWithEjects: Percentile and MeanLatency reads
// interleaved with OnEject must match a freshly-built collector at every
// step, including reads repeated back-to-back and reads straight after
// an ejection.
func TestPercentileInterleavedWithEjects(t *testing.T) {
	// Deliberately unsorted arrivals so a stale cache would show.
	lats := []int64{70, 10, 90, 30, 50, 20, 80, 40, 60, 5}
	c := New(4, 0, 1000)
	for i, lat := range lats {
		eject(c, uint64(i), 10, 10+lat, message.Regular, 0, 0)
		// Reference collector rebuilt from scratch over the same prefix.
		ref := New(4, 0, 1000)
		for j := 0; j <= i; j++ {
			eject(ref, uint64(j), 10, 10+lats[j], message.Regular, 0, 0)
		}
		for _, p := range []float64{0.5, 0.9, 0.99, 1.0} {
			got, want := c.Percentile(p), ref.Percentile(p)
			if got != want {
				t.Fatalf("after %d ejects: p%v = %v, want %v", i+1, 100*p, got, want)
			}
			// Immediate re-read exercises the cached path.
			if again := c.Percentile(p); again != got {
				t.Fatalf("after %d ejects: repeated p%v read changed: %v then %v", i+1, 100*p, got, again)
			}
		}
		if got, want := c.MeanLatency(), ref.MeanLatency(); got != want {
			t.Fatalf("after %d ejects: mean = %v, want %v", i+1, got, want)
		}
	}
}

// A quantile outside (0, 1] — zero, negative, above one, or NaN — used
// to clamp silently onto the min or max sample; it must be NaN.
func TestInvalidQuantilesAreNaN(t *testing.T) {
	c := New(4, 0, 100)
	for i, lat := range []int64{10, 20, 30, 40} {
		eject(c, uint64(i), 10, 10+lat, message.Regular, 0, 0)
	}
	for _, p := range []float64{0, -0.5, 1.01, math.NaN()} {
		if got := c.Percentile(p); !math.IsNaN(got) {
			t.Errorf("Percentile(%v) = %v, want NaN", p, got)
		}
	}
	// Invalid queries must not poison the sort cache for later valid ones.
	if got := c.Percentile(0.99); got != 40 {
		t.Errorf("p99 after invalid queries = %v, want 40", got)
	}
}

func TestEmptyQuantilesAllNaN(t *testing.T) {
	c := New(4, 0, 100)
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := c.Percentile(q); !math.IsNaN(got) {
			t.Errorf("empty Percentile(%v) = %v, want NaN", q, got)
		}
	}
}

// TestCollectorMatchesReference drives the counting collector and the
// slice-backed refCollector with the same random eject streams —
// latency 0, latencies on both sides of denseCap and far past it,
// FastPass (some dropped) and regular mixes, creates in
// and out of the window — and demands every accessor bit-equal after
// every batch, across a mid-stream snapshot round trip.
func TestCollectorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := New(4, 100, 700), newRefCollector(4, 100, 700)
		var id uint64
		for batch := 0; batch < 30; batch++ {
			for k := rng.Intn(60); k > 0; k-- {
				var lat int64
				switch rng.Intn(12) {
				case 0:
					lat = 0
				case 1:
					lat = denseCap - 2 + rng.Int63n(4)
				case 2:
					lat = denseCap + rng.Int63n(1<<20)
				default:
					lat = rng.Int63n(400)
				}
				create := rng.Int63n(900)
				p := message.NewPacket(id, 0, 1, message.Request, 1+rng.Intn(5), create)
				id++
				p.EjectTime = create + lat
				if rng.Intn(2) == 0 {
					p.Kind = message.FastPass
					p.FastCycles = rng.Int63n(lat + 1)
					if rng.Intn(6) == 0 {
						p.Dropped = 1
					}
				}
				c.OnCreate(p)
				c.OnEject(p)
				ref.OnCreate(p)
				ref.OnEject(p)
			}
			sameStats(t, seed, batch, c, ref)
			if batch == 15 {
				w := snapshot.NewWriter()
				c.SnapshotState(w)
				blob := snapshot.Seal(nil, w)
				_, r, err := snapshot.Open(blob)
				if err != nil {
					t.Fatal(err)
				}
				c = New(4, 100, 700)
				c.RestoreState(r)
				if err := r.Err(); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
				w = snapshot.NewWriter()
				c.SnapshotState(w)
				if again := snapshot.Seal(nil, w); !slices.Equal(again, blob) {
					t.Fatalf("seed %d: restored collector re-encodes to different bytes", seed)
				}
				sameStats(t, seed, batch, c, ref)
			}
		}
		if c.Samples() == 0 || len(c.overflow) == 0 || c.fastN == 0 || c.regOnlyN == 0 {
			t.Fatalf("seed %d: stream missed a path: %d samples, %d overflow, %d fast, %d regular",
				seed, c.Samples(), len(c.overflow), c.fastN, c.regOnlyN)
		}
	}
}

func sameStats(t *testing.T, seed int64, batch int, c *Collector, ref *refCollector) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d batch %d: %s = %v, reference %v", seed, batch, what, got, want)
		}
	}
	if c.Samples() != ref.Samples() {
		t.Fatalf("seed %d batch %d: Samples = %d, reference %d", seed, batch, c.Samples(), ref.Samples())
	}
	same("MeanLatency", c.MeanLatency(), ref.MeanLatency())
	same("RegularMean", c.RegularMean(), ref.RegularMean())
	reg, fast := c.FastSplit()
	rreg, rfast := ref.FastSplit()
	same("FastSplit regular", reg, rreg)
	same("FastSplit fast", fast, rfast)
	qs := []float64{1e-9, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 0, 1.5, math.NaN()}
	for _, p := range qs {
		same("Percentile", c.Percentile(p), ref.Percentile(p))
	}
	if c.perClassEjects != ref.perClassEjects {
		t.Fatalf("seed %d batch %d: per-class ejects = %v, reference %v", seed, batch, c.perClassEjects, ref.perClassEjects)
	}
}

// refCollector is the slice-backed Collector this package shipped before
// the counting histogram, kept verbatim (less the accessors both share
// unchanged) as the lockstep reference of TestCollectorMatchesReference.
//
// refCollector accumulates per-packet results. Packets *created* inside the
// measurement window [MeasStart, MeasEnd) contribute latency samples;
// packets *ejected* inside the window contribute to throughput. The
// usual warmup → measure → drain methodology wires both.
type refCollector struct {
	Nodes              int
	MeasStart, MeasEnd int64

	latencies []int64
	// sorted caches an ascending copy of latencies for Percentile, so
	// repeated quantile reads cost one sort instead of one per call;
	// OnEject invalidates it (sortedStale) instead of re-sorting.
	sorted      []int64
	sortedStale bool
	// fastSplit records (regular, fast) cycle splits for measured
	// FastPass packets; regOnly holds latencies of never-promoted
	// packets (Fig. 9's "regular packets" series).
	fastTime, regTime []int64
	regOnly           []int64

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

// newRefCollector creates a collector for a network of the given size measuring the
// window [measStart, measEnd).
func newRefCollector(nodes int, measStart, measEnd int64) *refCollector {
	return &refCollector{Nodes: nodes, MeasStart: measStart, MeasEnd: measEnd}
}

// inWindow reports whether a cycle falls in the measurement window.
func (c *refCollector) inWindow(cycle int64) bool {
	return cycle >= c.MeasStart && cycle < c.MeasEnd
}

// OnCreate observes packet creation (tagging).
func (c *refCollector) OnCreate(pkt *message.Packet) {
	if c.inWindow(pkt.CreateTime) {
		c.created++
	}
}

// OnEject observes a packet leaving the network.
func (c *refCollector) OnEject(pkt *message.Packet) {
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
	c.latencies = append(c.latencies, lat)
	c.sortedStale = true
	switch {
	case pkt.Dropped > 0:
		c.droppedPkts++
	case pkt.Kind == message.FastPass:
		c.fastPkts++
	default:
		c.regularPkts++
	}
	if pkt.Kind == message.FastPass {
		c.fastTime = append(c.fastTime, pkt.FastCycles)
		c.regTime = append(c.regTime, lat-pkt.FastCycles)
	} else {
		c.regOnly = append(c.regOnly, lat)
	}
}

// RegularMean is the mean latency of measured packets that were never
// promoted to FastPass.
func (c *refCollector) RegularMean() float64 { return refMean(c.regOnly) }

// Samples reports the number of measured latency samples.
func (c *refCollector) Samples() int { return len(c.latencies) }

// MeanLatency is the average packet latency over measured packets, or
// NaN with no samples.
func (c *refCollector) MeanLatency() float64 { return refMean(c.latencies) }

// Percentile returns the p-quantile (0 < p <= 1) of measured latencies
// by nearest-rank, or NaN with no samples or a p outside (0, 1] (a
// bogus p used to clamp silently onto the min or max sample — an easy
// way to plot garbage without noticing). Fig. 12 uses p = 0.99. The
// sorted view is cached across calls and rebuilt only after new
// ejections, so interleaving Percentile reads with OnEject stays
// correct and repeated reads stay cheap.
func (c *refCollector) Percentile(p float64) float64 {
	if len(c.latencies) == 0 || math.IsNaN(p) || p <= 0 || p > 1 {
		return math.NaN()
	}
	if c.sortedStale || len(c.sorted) != len(c.latencies) {
		c.sorted = append(c.sorted[:0], c.latencies...)
		slices.Sort(c.sorted)
		c.sortedStale = false
	}
	// With p in (0, 1], ceil(p*n)-1 is always a valid index.
	return float64(c.sorted[int(math.Ceil(p*float64(len(c.sorted))))-1])
}

// FastSplit reports the mean regular (buffered) and FastPass
// (bufferless) latency components of measured FastPass packets (Fig. 9).
func (c *refCollector) FastSplit() (regular, fast float64) {
	return refMean(c.regTime), refMean(c.fastTime)
}

func refMean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// TestCertainSaturated drives the bound at its edges: nothing is certain
// before MeasEnd; a = cycle − MeasEnd exactly (the cycle at which f(need)
// reaches satLat is not yet certain, the next one is); and a run whose
// early samples are slow but whose rest could all still land fast is
// not certain, however slow f(need) reads — only f(rest) says so.
func TestCertainSaturated(t *testing.T) {
	const start, end, sat = 100, 200, 150
	// Ten measured packets, eight delivered at latency 10: need = 1
	// (9/10 passes the count), rest = 2. f(1) = (80 + a)/9 passes 150 at
	// a = 1271, f(2) = (80 + 2a)/10 at a = 711.
	c := New(4, start, end)
	for i := range 10 {
		p := message.NewPacket(uint64(i), 0, 1, message.Request, 1, start+int64(i))
		c.OnCreate(p)
		if i < 8 {
			p.EjectTime = p.CreateTime + 10
			c.OnEject(p)
		}
	}
	for _, tc := range []struct {
		cycle int64
		want  bool
	}{{end - 1, false}, {end, false}, {end + 1270, false}, {end + 1271, true}, {end + 5000, true}} {
		if got := c.CertainSaturated(tc.cycle, sat); got != tc.want {
			t.Errorf("8 of 10 delivered at latency 10, cycle %d: certain %v, want %v", tc.cycle, got, tc.want)
		}
	}
	if New(4, start, end).CertainSaturated(end+5000, sat) {
		t.Error("a run with nothing measured has no certain verdict")
	}

	// 100 measured, ten delivered at latency 1400: need = 80, rest = 90.
	// f(80) = (14000 + 80a)/90 is over 150 even at a = 0, but the 90
	// still out could all land at latency a: f(90) = (14000 + 90a)/100
	// passes 150 only from a = 12.
	c = New(4, start, end)
	for i := range 100 {
		p := message.NewPacket(uint64(i), 0, 1, message.Request, 1, start)
		c.OnCreate(p)
		if i < 10 {
			p.EjectTime = p.CreateTime + 1400
			c.OnEject(p)
		}
	}
	for _, tc := range []struct {
		cycle int64
		want  bool
	}{{end, false}, {end + 11, false}, {end + 12, true}} {
		if got := c.CertainSaturated(tc.cycle, sat); got != tc.want {
			t.Errorf("10 of 100 delivered at latency 1400, cycle %d: certain %v, want %v", tc.cycle, got, tc.want)
		}
	}

	// The count edge sits where the verdict's own division puts it: at 7
	// of 10 delivered need is 2, not 3 (9/10 passes).
	c = New(4, start, end)
	for i := range 10 {
		p := message.NewPacket(uint64(i), 0, 1, message.Request, 1, start)
		c.OnCreate(p)
		if i < 7 {
			p.EjectTime = p.CreateTime
			c.OnEject(p)
		}
	}
	// f(2) = 2a/9 passes 150 at a = 676, f(3) = 3a/10 at a = 501.
	if c.CertainSaturated(end+675, sat) || !c.CertainSaturated(end+676, sat) {
		t.Error("7 of 10 delivered at latency 0: need is not 2")
	}
}
