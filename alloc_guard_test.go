// Alloc-regression guards for the memory rule of DESIGN.md §9 —
// allocate at Build, never after. At steady state, simulating a cycle
// must not touch the allocator: the packet arena, ring-buffer queues,
// slab-built routers and active-set scheduler together make this
// possible, and any change that reintroduces a per-cycle allocation (an
// append-prepend, a per-cycle make, an unguarded fmt.Sprintf) fails here
// immediately rather than showing up as a slow drift in benchmark
// numbers. Build itself has an object ceiling so it cannot quietly
// re-fragment into per-router allocations, and a steady-state checkpoint
// may allocate its blob and nothing else.
package repro_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/workload"
	"repro/noc"
)

// steadyStateAllocBudget tolerates the amortised capacity growth that is
// not per-cycle work: an arena chunk or a free-list doubling once every
// few thousand cycles shows up as a small fraction here, while a true
// per-cycle allocation is >= 1.0.
const steadyStateAllocBudget = 0.05

// allocsPerTick is the mean number of heap objects one tick makes over n
// calls, as a fraction. testing.AllocsPerRun divides in integers — it
// reports 0 for anything under one object per call, so a budget of 0.05
// measured with it could not fail.
func allocsPerTick(n int, tick func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tick()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tick()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// injector is the guards' synthetic traffic: uniform Bernoulli
// injection from the instance's packet arena.
type injector struct {
	inst *sim.Instance
	gen  *traffic.Generator
	rng  *rand.Rand
}

func newInjector(inst *sim.Instance, rate float64) *injector {
	src := snapshot.NewCountingSource(0x5eed)
	o := inst.Opts
	gen := &traffic.Generator{Pattern: traffic.Uniform, Rate: rate, W: o.W, H: o.H, Pool: inst.UsePool(), Stream: src}
	return &injector{inst, gen, rand.New(src)}
}

func (s *injector) Tick(cycle int64) {
	for _, pkt := range s.gen.Tick(cycle, s.rng) {
		s.inst.Enqueue(pkt)
	}
}

func (*injector) Tock(int64) bool { return false }

// oneCycle steps inst one cycle through the run loop.
func oneCycle(inst *sim.Instance, src sim.Source) func() {
	return func() { inst.Run(src, inst.Cycle()+1) }
}

// measureSteadyStateAllocs runs the scheme through the run loop, with a
// counting phase hook when hooked is set, and scores 300 warm cycles.
func measureSteadyStateAllocs(t *testing.T, scheme noc.Scheme, w, h int, rate float64, hooked bool) float64 {
	t.Helper()
	// Watchdog on at the default stride: invariant sampling is part of
	// the steady state and must fit inside the same zero budget.
	inst := sim.Build(sim.Options{Scheme: scheme, W: w, H: h, Seed: 1, Watchdog: "on"})
	var heard [network.PhaseEjectEnd + 1]int64
	if hooked {
		inst.Hook = func(p network.Phase) { heard[p]++ }
	}
	tick := oneCycle(inst, newInjector(inst, rate))
	for c := 0; c < 8000; c++ {
		tick()
	}
	got := allocsPerTick(300, tick)
	if hooked && heard == [len(heard)]int64{} {
		t.Error("the hook heard no phase")
	}
	return got
}

func TestSteadyStateZeroAllocsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	cases := []struct {
		name   string
		scheme noc.Scheme
		size   int
		rate   float64
		budget float64
		hooked bool
	}{
		{"FastPass/uniform", noc.FastPass, 4, 0.10, steadyStateAllocBudget, false},
		{"FastPass/idle", noc.FastPass, 4, 0, steadyStateAllocBudget, false},
		// 0.06 is the highest fig7_uniform rate EscapeVC sustains: past
		// saturation the unbounded source queues and the arena grow with
		// the backlog every cycle, which is load, not engine garbage.
		{"EscapeVC/8x8", noc.EscapeVC, 8, 0.06, steadyStateAllocBudget, false},
		{"FastPass/16x16", noc.FastPass, 16, 0.03, steadyStateAllocBudget, false},
		// lowload_16x16's shape: ~4 of 256 routers awake, the cycle is
		// the generator's scan and PreCycle's walk over empty primes.
		{"FastPass/16x16-lowload", noc.FastPass, 16, 0.0005, steadyStateAllocBudget, false},
		// MinBD draws from the arena like everyone else, so generation is
		// part of the measurement.
		{"MinBD/8x8", noc.MinBD, 8, 0.06, steadyStateAllocBudget, false},
		// SPIN probes only once heads block, which is past its saturation
		// point (0.08): at 0.10 a probe fires about once a cycle and the
		// backlog takes an arena chunk every ~11 cycles — 0.08 objects
		// per cycle measured. A confirmed loop (one in ~17 cycles) reuses
		// an executed spin's chain buffer and, untraced, formats nothing;
		// copying its chain afresh again would add 0.06, and a probe
		// that allocated would alone be >= 1.
		{"SPIN/8x8@0.10", noc.SPIN, 8, 0.10, 0.12, false},
		// A phase hook that does not allocate leaves the cycle at zero:
		// an unset hook is a nil check, a set one a call per boundary.
		{"FastPass/8x8+hook", noc.FastPass, 8, 0.06, steadyStateAllocBudget, true},
		{"MinBD/8x8+hook", noc.MinBD, 8, 0.06, steadyStateAllocBudget, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := measureSteadyStateAllocs(t, tc.scheme, tc.size, tc.size, tc.rate, tc.hooked); got > tc.budget {
				t.Errorf("steady-state cycle allocates %.3f times on average, want ~0 (budget %.2f)",
					got, tc.budget)
			}
		})
	}
	// Coherence traffic: the engine's tables are slabs, its packets come
	// from its own arena and go back when the NIC has consumed them.
	// Streamcluster has the highest IssueRate of the workload profiles.
	t.Run("Protocol/FastPass-8x8", func(t *testing.T) {
		inst := sim.Build(sim.Options{Scheme: noc.FastPass, W: 8, H: 8, Seed: 1, Watchdog: "on"})
		eng := protocol.New(inst.Net, workload.MustGet("Streamcluster").Profile, 1)
		tick := oneCycle(inst, engine{eng})
		for c := 0; c < 8000; c++ {
			tick()
		}
		if got := allocsPerTick(300, tick); got > steadyStateAllocBudget {
			t.Errorf("protocol cycle allocates %.3f times on average, want ~0 (budget %.2f)", got, steadyStateAllocBudget)
		}
		if eng.Completed == 0 || eng.OutstandingTxns() == 0 {
			t.Errorf("%d completed, %d outstanding: the engine was measured idle", eng.Completed, eng.OutstandingTxns())
		}
	})
}

// engine is the guards' coherence traffic: the protocol engine alone.
type engine struct{ *protocol.Engine }

func (engine) Tock(int64) bool { return false }

// ringGrowObjects reads the heap profile for objects allocated by
// ringq's grow: those made for a router VC (an injection queue outgrowing
// its window) and all others. The runtime publishes profile counts two
// collections late, hence the GCs.
func ringGrowObjects() (injection, other int64) {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("alloc guard: heap profile grew while being read")
	}
	for _, rec := range recs[:n] {
		var grow, vc bool
		frames := runtime.CallersFrames(rec.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			grow = grow || strings.Contains(f.Function, "ringq.") && strings.HasSuffix(f.Function, ".grow")
			vc = vc || strings.HasSuffix(f.Function, "router.(*VC).insert")
		}
		switch {
		case grow && vc:
			injection += rec.AllocObjects
		case grow:
			other += rec.AllocObjects
		}
	}
	return injection, other
}

// TestFirstTouchAllocBudget pins "never after Build" from the very first
// cycle, with no warm-up to hide behind: the queues a packet waits in
// are threaded through the arena and the injection queues sit in their
// Build-carved windows, so the first 2,000 cycles of a fresh instance
// allocate arena chunks, free-list doublings and (protocol) the
// emission queue's growth — a dozen objects — plus one or two doublings
// for each injection queue that backs up more than four packets deep
// (none at this synthetic load, 77 under Streamcluster's six classes).
// No other ring grows. Before the queues were intrusive every first
// touch of a NIC or injection ring was an object: ~200 here for
// synthetic traffic, ~1,100 for the protocol.
func TestFirstTouchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	cases := []struct {
		name    string
		ceiling float64
		ticker  func(inst *sim.Instance) func()
	}{
		{"FastPass-8x8@0.02", 16, func(inst *sim.Instance) func() {
			return oneCycle(inst, newInjector(inst, 0.02))
		}},
		{"Protocol/FastPass-8x8", 120, func(inst *sim.Instance) func() {
			return oneCycle(inst, engine{protocol.New(inst.Net, workload.MustGet("Streamcluster").Profile, 1)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tick := tc.ticker(sim.Build(sim.Options{Scheme: noc.FastPass, W: 8, H: 8, Seed: 1}))
			inj0, other0 := ringGrowObjects()
			const cycles = 2000
			got := allocsPerTick(cycles, tick) * cycles
			inj, other := ringGrowObjects()
			t.Logf("first %d cycles: %.0f heap objects, %d of them injection queues growing past their window", cycles, got, inj-inj0)
			if got > tc.ceiling {
				t.Errorf("first %d cycles make %.0f heap objects, ceiling %.0f", cycles, got, tc.ceiling)
			}
			if other != other0 {
				t.Errorf("%d rings other than injection queues grew in the first %d cycles, want none", other-other0, cycles)
			}
		})
	}
}

// TestStructSizes holds the five structs a run's memory is made of to
// their sizes: the arena is most of a run's bytes and every NIC, router,
// VC and VC entry is carved once per node at Build, so a field added to
// one of them is an alloc_mb regression on every workload (a 4-VC
// router alone has 22 VCs). A network VC carries its one entry inline,
// so its 88 bytes are all it costs (64 plus a 32-byte slab slot before).
func TestStructSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		got, limit uintptr
	}{
		{"message.Packet", unsafe.Sizeof(message.Packet{}), 128},
		{"router.Entry", unsafe.Sizeof(router.Entry{}), 32},
		{"nic.NIC", unsafe.Sizeof(nic.NIC{}), 656},
		{"router.Router", unsafe.Sizeof(router.Router{}), 496},
		{"router.VC", unsafe.Sizeof(router.VC{}), 88},
		// The generator's whole state: 607 words, two cursors, a count.
		{"snapshot.CountingSource", unsafe.Sizeof(snapshot.CountingSource{}), 4896},
	} {
		t.Logf("%s: %d bytes", tc.name, tc.got)
		if tc.got > tc.limit {
			t.Errorf("%s is %d bytes, limit %d", tc.name, tc.got, tc.limit)
		}
	}
}

// TestBuildAllocBudget caps the heap objects sim.Build creates: 35 at
// any mesh size — a constant number of backing arrays and not one
// object per node (the pre-slab build made ~98 per router, the slab
// build still two closures); a build that carves a released slab makes
// three fewer. The ceiling sits 20 % above that, so a single new
// per-router allocation fails both cases at once.
// protocol.New is held to the same rule: two table slabs with their
// counts, the emission queue, the arena, the RNG and one closure — 10
// objects at any size, where the map-based engine made three per node.
func TestBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	for _, tc := range []struct {
		size    int
		ceiling float64
	}{{8, 42}, {32, 42}} {
		got := testing.AllocsPerRun(3, func() {
			sim.Build(sim.Options{Scheme: noc.FastPass, W: tc.size, H: tc.size, Seed: 1})
		})
		t.Logf("sim.Build(FastPass %dx%d): %.0f heap objects", tc.size, tc.size, got)
		if got > tc.ceiling {
			t.Errorf("sim.Build(FastPass %dx%d) makes %.0f heap objects, ceiling %.0f", tc.size, tc.size, got, tc.ceiling)
		}
	}
	inst := sim.Build(sim.Options{Scheme: noc.FastPass, W: 32, H: 32, Seed: 1})
	profile := workload.MustGet("Streamcluster").Profile
	got := testing.AllocsPerRun(3, func() { protocol.New(inst.Net, profile, 1) })
	t.Logf("protocol.New(32x32): %.0f heap objects", got)
	if got > 13 {
		t.Errorf("protocol.New(32x32) makes %.0f heap objects, ceiling 13", got)
	}
}

// TestCheckpointAllocBudget pins the encoder reuse of DESIGN.md §13: in
// steady state a checkpoint allocates the blob it hands to OnCheckpoint
// and nothing else of note. A warm FastPass 16×16 run is resumed with a
// checkpoint every cycle; between two consecutive callbacks lie exactly
// one checkpoint and one (allocation-free) simulated cycle. The blob
// itself is held to the size of the simulator's state: 57,035 bytes at
// format v5 (417,003 at v4, which re-encoded every measured latency and
// 128 telemetry records at 8 bytes an integer), plus 10 %.
func TestCheckpointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	cfg := sim.SynthConfig{
		Options: sim.Options{Scheme: noc.FastPass, W: 16, H: 16, Seed: 1},
		Pattern: traffic.Uniform, Rate: 0.03,
		Warmup: 1000, Measure: 1000, Drain: 160,
	}
	var warm []byte
	cfg.CheckpointEvery = 2000
	cfg.OnCheckpoint = func(_ int64, b []byte) { warm = b }
	sim.RunSynthetic(cfg)
	rcfg, err := sim.OpenCheckpoint(warm)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}

	// The first checkpoints of the resumed run grow the retained buffers
	// (and its first cycles re-grow lazily sized queues); score the rest.
	const settle = 60
	var calls int
	var objs, bytes, blobBytes uint64
	var prev runtime.MemStats
	rcfg.CheckpointEvery = 1
	rcfg.OnCheckpoint = func(_ int64, b []byte) {
		var now runtime.MemStats
		runtime.ReadMemStats(&now)
		if calls++; calls > settle {
			objs += now.Mallocs - prev.Mallocs
			bytes += now.TotalAlloc - prev.TotalAlloc
			blobBytes += uint64(len(b))
		}
		prev = now
	}
	if _, err := sim.ResumeSynthetic(rcfg, warm); err != nil {
		t.Fatalf("ResumeSynthetic: %v", err)
	}
	n := float64(calls - settle)
	if n < 50 {
		t.Fatalf("only %d checkpoints scored", calls-settle)
	}
	t.Logf("%.0f checkpoints: %.2f objects and %.3f × blob bytes per call, %.0f bytes per blob",
		n, float64(objs)/n, float64(bytes)/float64(blobBytes), float64(blobBytes)/n)
	if perCall := float64(objs) / n; perCall > 4 {
		t.Errorf("steady-state checkpoint allocates %.2f objects per call, budget 4", perCall)
	}
	if ratio := float64(bytes) / float64(blobBytes); ratio > 1.1 {
		t.Errorf("steady-state checkpoint allocates %.3f × its blob's bytes, budget 1.1", ratio)
	}
	if perBlob := float64(blobBytes) / n; perBlob > 62_700 {
		t.Errorf("steady-state blob is %.0f bytes, ceiling 62,700", perBlob)
	}
}

// TestSteadyStateZeroAllocsWithTelemetry pins the telemetry hot path:
// with a Metrics attached — counters, gauges, a vector gauge, grids and
// the latency histogram, exactly the probe mix a real run registers —
// the per-cycle cost is a modulo check in Tick plus histogram
// increments, and the allocator must stay untouched. The window close
// itself is amortised (pinned by the telemetry package's own test); a
// window beyond the horizon keeps it out of this measurement.
func TestSteadyStateZeroAllocsWithTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	inst := sim.Build(sim.Options{Scheme: noc.FastPass, W: 4, H: 4, Seed: 1, Watchdog: "on"})
	n := inst.Net
	m := telemetry.New(telemetry.Options{Window: 1 << 40}, telemetry.Meta{
		Scheme: "FastPass", Pattern: "uniform", Rate: 0.10, Nodes: 16,
	})
	m.Counter("link_flits", func() int64 { return n.FlitsOnLinks })
	m.Gauge("resident", func() int64 {
		var tot int64
		for _, rt := range n.Routers {
			tot += int64(rt.Resident())
		}
		return tot
	})
	m.VecGauge("vc_occ", n.Routers[0].Cfg.NetVCs(), func(v int) int64 {
		var tot int64
		for _, rt := range n.Routers {
			tot += int64(rt.VCOccupancy(v))
		}
		return tot
	})
	m.NodeGrid(len(n.Routers), func(i int) int64 { return n.Routers[i].FlitsRouted })
	m.LinkGrid(n.NumChannels(), n.LinkFlits)
	m.Freeze()

	src := snapshot.NewCountingSource(0x5eed)
	gen := &traffic.Generator{Pattern: traffic.Uniform, Rate: 0.10, W: 4, H: 4, Pool: inst.UsePool(), Stream: src}
	rng := rand.New(src)
	tick := func() {
		for _, pkt := range gen.Tick(inst.Cycle(), rng) {
			inst.Enqueue(pkt)
		}
		inst.Step()
		m.ObserveLatency(inst.Cycle() & 63)
		m.Tick(inst.Cycle())
	}
	for c := 0; c < 8000; c++ {
		tick()
	}
	if got := allocsPerTick(300, tick); got > steadyStateAllocBudget {
		t.Errorf("telemetry-on cycle allocates %.3f times on average, want ~0 (budget %.2f)",
			got, steadyStateAllocBudget)
	}
}

// TestRecycledRunAllocBudget pins the cross-run half of DESIGN.md §9:
// a RunSynthetic hands its router slab and packet chunks to the next
// run in the process, so running a saturated 8×8 point again allocates
// under 6 % of the bytes its first run did (3.5 % measured). The source
// backlog's chunks are 80 % of the first run's bytes and the router slab
// 4 %, so losing either reuse fails. The first run starts from drained
// stores: a 2×2 one-VC build fits every spare slab, and each UsePool
// takes one spare pool.
func TestRecycledRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	for range 32 {
		sim.Build(sim.Options{Scheme: noc.FastPass, W: 2, H: 2, VCs: 1}).UsePool()
	}
	cfg := sim.SynthConfig{
		Options: sim.Options{Scheme: noc.FastPass, W: 8, H: 8, Seed: 1},
		Pattern: traffic.Uniform, Rate: 0.30,
		Warmup: 500, Measure: 1500, Drain: 1000,
	}
	var bytes [2]uint64
	for i := range bytes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if res := sim.RunSynthetic(cfg); !res.Saturated {
			t.Fatalf("run %d did not saturate: %+v", i+1, res)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("saturated 8×8 point: first run %d bytes, second %d (%.3f)", bytes[0], bytes[1], float64(bytes[1])/float64(bytes[0]))
	if float64(bytes[1]) > 0.06*float64(bytes[0]) {
		t.Errorf("second run allocates %d bytes, over 6 %% of the first run's %d", bytes[1], bytes[0])
	}
}
