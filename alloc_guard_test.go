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

	"repro/internal/fastpass"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
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

// measureSteadyStateAllocs runs o through the run loop, with a counting
// phase hook when hooked is set, and scores cycles warm cycles.
func measureSteadyStateAllocs(t *testing.T, o sim.Options, rate float64, hooked bool, cycles int) float64 {
	t.Helper()
	// Watchdog on at the default stride: invariant sampling is part of
	// the steady state and must fit inside the same zero budget.
	o.Seed, o.Watchdog = 1, "on"
	inst := sim.Build(o)
	var heard [network.PhaseEjectEnd + 1]int64
	if hooked {
		inst.Hook = func(p network.Phase) { heard[p]++ }
	}
	tick := oneCycle(inst, newInjector(inst, rate))
	for c := 0; c < 8000; c++ {
		tick()
	}
	got := allocsPerTick(cycles, tick)
	if hooked && heard == [len(heard)]int64{} {
		t.Error("the hook heard no phase")
	}
	return got
}

func TestSteadyStateZeroAllocsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	mesh := func(s sim.Scheme, size int) sim.Options { return sim.Options{Scheme: s, W: size, H: size} }
	cases := []struct {
		name   string
		opts   sim.Options
		rate   float64
		budget float64
		hooked bool
	}{
		{"FastPass/uniform", mesh(sim.FastPass, 4), 0.10, steadyStateAllocBudget, false},
		{"FastPass/idle", mesh(sim.FastPass, 4), 0, steadyStateAllocBudget, false},
		// 0.06 is the highest fig7_uniform rate EscapeVC sustains: past
		// saturation the unbounded source queues and the arena grow with
		// the backlog every cycle, which is load, not engine garbage.
		{"EscapeVC/8x8", mesh(sim.EscapeVC, 8), 0.06, steadyStateAllocBudget, false},
		{"FastPass/16x16", mesh(sim.FastPass, 16), 0.03, steadyStateAllocBudget, false},
		// lowload_16x16's shape: ~4 of 256 routers awake, the cycle is
		// the generator's scan and PreCycle's walk over empty primes.
		{"FastPass/16x16-lowload", mesh(sim.FastPass, 16), 0.0005, steadyStateAllocBudget, false},
		// MinBD draws from the arena like everyone else, so generation is
		// part of the measurement.
		{"MinBD/8x8", mesh(sim.MinBD, 8), 0.06, steadyStateAllocBudget, false},
		// SPIN probes only once heads block, which is past its saturation
		// point (0.08): at 0.10 a probe fires about once a cycle and the
		// backlog takes an arena chunk every ~11 cycles — 0.08 objects
		// per cycle measured. A confirmed loop (one in ~17 cycles) reuses
		// an executed spin's chain buffer and, untraced, formats nothing;
		// copying its chain afresh again would add 0.06, and a probe
		// that allocated would alone be >= 1.
		{"SPIN/8x8@0.10", mesh(sim.SPIN, 8), 0.10, 0.12, false},
		// A phase hook that does not allocate leaves the cycle at zero:
		// an unset hook is a nil check, a set one a call per boundary.
		{"FastPass/8x8+hook", mesh(sim.FastPass, 8), 0.06, steadyStateAllocBudget, true},
		{"MinBD/8x8+hook", mesh(sim.MinBD, 8), 0.06, steadyStateAllocBudget, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := measureSteadyStateAllocs(t, tc.opts, tc.rate, tc.hooked, 300); got > tc.budget {
				t.Errorf("steady-state cycle allocates %.3f times on average, want ~0 (budget %.2f)",
					got, tc.budget)
			}
		})
	}
	// Every other controller edits VCs directly, forced moves and all:
	// SWAP's exchanges, DRAIN's rotations, Pitstop's pit stops, TFC's
	// tokens and FastPass's healing engine. Each is measured over 2,000
	// cycles at 0.06, so a 256-cycle DRAIN period puts several drain
	// windows inside them.
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"SWAP/8x8", mesh(sim.SWAP, 8)},
		{"DRAIN/8x8-period256", sim.Options{Scheme: sim.DRAIN, W: 8, H: 8, DrainPeriod: 256}},
		{"Pitstop/8x8", mesh(sim.Pitstop, 8)},
		{"TFC/8x8", mesh(sim.TFC, 8)},
		{"FastPass/8x8-healing", sim.Options{Scheme: sim.FastPass, W: 8, H: 8, FPHealing: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := measureSteadyStateAllocs(t, tc.opts, 0.06, false, 2000)
			t.Logf("%.3f heap objects a cycle over 2,000 warm cycles", got)
			if got > steadyStateAllocBudget {
				t.Errorf("steady-state cycle allocates %.3f times on average, want ~0 (budget %.2f)", got, steadyStateAllocBudget)
			}
		})
	}
	// Coherence traffic: the engine's tables are slabs, its packets come
	// from its own arena and go back when the NIC has consumed them.
	// Streamcluster has the highest IssueRate of the workload profiles.
	t.Run("Protocol/FastPass-8x8", func(t *testing.T) {
		inst := sim.Build(sim.Options{Scheme: sim.FastPass, W: 8, H: 8, Seed: 1, Watchdog: "on"})
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

// growthObjects reads the heap profile for objects allocated while an
// injection queue took its fifo or outgrew its window — anything made
// under router.(*VC).insert, which is the fifo or overflow chunk the
// slab draws when the stores hold none — and for objects made by any
// other ring's grow.
// The runtime publishes profile counts two collections late, hence the
// GCs.
func growthObjects() (injection, other int64) {
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
		case vc:
			injection += rec.AllocObjects
		case grow:
			other += rec.AllocObjects
		}
	}
	return injection, other
}

// TestFirstTouchAllocBudget pins "never after Build" from the very first
// cycle, with no warm-up to hide behind: the queues a packet waits in
// are threaded through the arena, so the first 2,000 cycles of a fresh
// instance allocate arena chunks, free-list doublings and (protocol) the
// emission queue's growth — a dozen objects — plus the fifo chunks
// (one per class used) that injection queues take a ring on a first
// window from at their first packet, and the overflow chunks (and their
// list) they take doubled windows from when they back up more than four
// packets deep: one object of 13–14 at this synthetic load (one class),
// eight of 28 under Streamcluster's six classes, whose queues outgrow
// 77 windows (77 objects of 97 when each grew onto the heap). No other
// ring grows. A second instance, built after the first released its network,
// takes the same chunks from the stores: none of its queues makes a
// heap object. Before the queues were intrusive every
// first touch of a NIC or injection ring was an object: ~200 here for
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
		{"Protocol/FastPass-8x8", 30, func(inst *sim.Instance) func() {
			return oneCycle(inst, engine{protocol.New(inst.Net, workload.MustGet("Streamcluster").Profile, 1)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, instance := range []string{"fresh", "warm"} {
				inst := sim.Build(sim.Options{Scheme: sim.FastPass, W: 8, H: 8, Seed: 1})
				tick := tc.ticker(inst)
				inj0, other0 := growthObjects()
				const cycles = 2000
				got := allocsPerTick(cycles, tick) * cycles
				inj, other := growthObjects()
				t.Logf("%s instance, first %d cycles: %.0f heap objects, %d of them injection queues taking a fifo or outgrowing a window", instance, cycles, got, inj-inj0)
				if got > tc.ceiling {
					t.Errorf("%s instance: first %d cycles make %.0f heap objects, ceiling %.0f", instance, cycles, got, tc.ceiling)
				}
				if other != other0 {
					t.Errorf("%s instance: %d rings other than injection queues grew in the first %d cycles, want none", instance, other-other0, cycles)
				}
				if instance == "warm" && inj != inj0 {
					t.Errorf("warm instance: injection queues made %d heap objects growing past their windows, want none", inj-inj0)
				}
				inst.Net.Release()
			}
		})
	}
}

// TestGraphFirstTouchZeroAllocs pins the route buffer on a graph: a
// 4×4 torus built with topology.NewGraph gives every node four ports,
// and a destination two hops away on both axes is productive on all
// four, so a head's first VA attempt asks the routing function for four
// ports. The router's buffer holds them; one two ports long spilled the
// append to the heap at every such head. Lanes ride the torus's walk
// (fastpass.AttachWalk), packets come from an arena, and after the
// warm-up has grown the arena to its high-water mark the cycle makes no
// heap object.
func TestGraphFirstTouchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	const side = 4
	var edges [][2]int
	for v := range side * side {
		x, y := v%side, v/side
		edges = append(edges, [2]int{v, y*side + (x+1)%side}, [2]int{v, (y+1)%side*side + x})
	}
	g, err := topology.NewGraph(side*side, edges)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(network.Params{Mesh: g, Router: fastpass.Config(1), EjectCap: 4})
	lanes := fastpass.AttachWalk(net)
	pl := message.NewPool()
	for _, nc := range net.NICs {
		nc.Recycle = func(p *message.Packet) { pl.PutCtx(p, p.Dst, net.Cycle()) }
	}
	rng := rand.New(rand.NewSource(7))
	var id uint64
	tick := func() {
		for src := range side * side {
			if rng.Float64() < 0.05 {
				dst := rng.Intn(side*side - 1)
				if dst >= src {
					dst++
				}
				id++
				net.NICs[src].EnqueueSource(pl.Get(id, src, dst, message.Request, 1+4*int(id%2), net.Cycle()))
			}
		}
		net.Step()
	}
	for range 5000 {
		tick()
	}
	if got := allocsPerTick(2000, tick) * 2000; got != 0 {
		t.Errorf("2000 warm cycles on a degree-4 graph made %.0f heap objects, want none", got)
	}
	if lanes.Counters.Promoted == 0 || pl.Puts == 0 {
		t.Errorf("a dull run: %d promoted, %d packets delivered and recycled", lanes.Counters.Promoted, pl.Puts)
	}
}

// TestStructSizes holds the structs a run's memory is made of to their
// sizes: the arena is most of a run's bytes and every NIC, router and VC
// is carved once per node at Build (VC entries at an injection queue's
// first packet), so a field added to one of them is an alloc_mb
// regression on every workload (a 4-VC router alone has 22 VCs). A
// network VC is its one inline entry, with no ring, so it fits a cache
// line: 64 bytes, where a ring header and a FIFO's capacity words beside
// the entry made it 88. The router's 496 include a four-port route
// buffer, a graph node's most.
func TestStructSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		got, limit uintptr
	}{
		{"message.Packet", unsafe.Sizeof(message.Packet{}), 112},
		{"router.Entry", unsafe.Sizeof(router.Entry{}), 32},
		{"nic.NIC", unsafe.Sizeof(nic.NIC{}), 640},
		{"router.Router", unsafe.Sizeof(router.Router{}), 496},
		{"router.VC", unsafe.Sizeof(router.VC{}), 64},
		// The generator's whole state: 607 words, two cursors, a count.
		{"snapshot.CountingSource", unsafe.Sizeof(snapshot.CountingSource{}), 4880},
	} {
		t.Logf("%s: %d bytes", tc.name, tc.got)
		if tc.got > tc.limit {
			t.Errorf("%s is %d bytes, limit %d", tc.name, tc.got, tc.limit)
		}
	}
}

// TestBuildAllocBudget caps the heap objects sim.Build creates: 31 at
// any mesh size when the stores are empty — a constant number of
// backing arrays and not one object per node (the pre-slab build made
// ~98 per router, the slab build still two closures) — and 14 when it
// takes every array a released build put back (Network.Release and
// Mesh.Release). The ceilings sit 20 % above that, so a single new
// per-router allocation fails every case at once.
// protocol.New is held to the same rule: two table slabs with their
// counts, the emission queue, the arena, the RNG and one closure — 10
// objects at any size, where the map-based engine made three per node.
func TestBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	for _, tc := range []struct {
		size     int
		released bool
		ceiling  float64
	}{{8, false, 38}, {32, false, 38}, {8, true, 17}, {32, true, 17}} {
		got := testing.AllocsPerRun(3, func() {
			inst := sim.Build(sim.Options{Scheme: sim.FastPass, W: tc.size, H: tc.size, Seed: 1})
			if tc.released {
				inst.Net.Release()
				inst.Mesh.Release()
			}
		})
		t.Logf("sim.Build(FastPass %dx%d), released %v: %.0f heap objects", tc.size, tc.size, tc.released, got)
		if got > tc.ceiling {
			t.Errorf("sim.Build(FastPass %dx%d), released %v, makes %.0f heap objects, ceiling %.0f", tc.size, tc.size, tc.released, got, tc.ceiling)
		}
	}
	inst := sim.Build(sim.Options{Scheme: sim.FastPass, W: 32, H: 32, Seed: 1})
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
// itself is held to the size of the simulator's live state: 28,229
// bytes at format v6, plus 10 % (57,035 at v5, which encoded every empty
// VC, injection queue, NIC class and link stage; 417,003 at v4, which
// re-encoded every measured latency and 128 telemetry records at 8 bytes
// an integer).
func TestCheckpointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	cfg := sim.SynthConfig{
		Options: sim.Options{Scheme: sim.FastPass, W: 16, H: 16, Seed: 1},
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
	// Reading the config decodes no packet of the blob's table (293
	// objects at format v5, one per packet; 2 at v6).
	if open := testing.AllocsPerRun(5, func() { sim.OpenCheckpoint(warm) }); open > 4 {
		t.Errorf("OpenCheckpoint allocates %.0f objects, budget 4", open)
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
	if perBlob := float64(blobBytes) / n; perBlob > 31_100 {
		t.Errorf("steady-state blob is %.0f bytes, ceiling 31,100", perBlob)
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
	inst := sim.Build(sim.Options{Scheme: sim.FastPass, W: 4, H: 4, Seed: 1, Watchdog: "on"})
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
