package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// This file is the traced pass: the run loops of sim.RunSynthetic,
// sim.RunApp, sim.ResumeSynthetic and campaign.Run rebuilt from the
// public pieces they are made of, with a timestamp at every layer
// boundary. Nothing under internal/ is touched: inside Network.Step the
// boundaries come from a Controller wrapper (PreCycle/PostCycle) and a
// chained Probe (fires after shift). The mirror must stay bit-identical
// to the entry points it shadows — the harness compares result
// fingerprints, checkpoint blobs and telemetry streams between the two
// passes, and mirror_test.go pins the equivalence per scheme.

// stepClock holds the timestamps the hooks inside one Network.Step
// leave for the loop around it.
type stepClock struct {
	preStart, preEnd   int64
	postStart, postEnd int64
	probeStart         int64
	probeEnd           int64
	active             int64 // routers in the active set this cycle
	probed             bool  // a real Probe (the invariant watchdog) is chained
}

// tracedController timestamps a scheme controller's PreCycle and
// PostCycle from outside. Everything between PreCycle's end and
// PostCycle's start is NIC consume, NIC inject and the router steps —
// inseparable from outside, reported as router_nic.
type tracedController struct {
	inner network.Controller
	clk   *stepClock
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) PreCycle(n *network.Network) {
	c.clk.active = int64(n.ActiveRouterCount())
	//nocvet:ignore dettaint harness timestamp, traced pass only: lands in the span table, never in simulator state
	c.clk.preStart = now()
	c.inner.PreCycle(n)
	//nocvet:ignore dettaint harness timestamp, traced pass only: lands in the span table, never in simulator state
	c.clk.preEnd = now()
}

func (c *tracedController) PostCycle(n *network.Network) {
	//nocvet:ignore dettaint harness timestamp, traced pass only: lands in the span table, never in simulator state
	c.clk.postStart = now()
	c.inner.PostCycle(n)
	//nocvet:ignore dettaint harness timestamp, traced pass only: lands in the span table, never in simulator state
	c.clk.postEnd = now()
}

// tracedStater is tracedController for controllers that checkpoint:
// Network.SnapshotState asks its Controller for snapshot.Stater, so the
// wrapper must answer exactly when the wrapped controller would.
type tracedStater struct {
	tracedController
	st snapshot.Stater
}

func (c *tracedStater) SnapshotState(w *snapshot.Writer) { c.st.SnapshotState(w) }
func (c *tracedStater) RestoreState(r *snapshot.Reader)  { c.st.RestoreState(r) }

// instrument installs the Controller wrapper and chains the Probe.
func instrument(n *network.Network, clk *stepClock) {
	tc := tracedController{inner: n.Controller, clk: clk}
	if st, ok := n.Controller.(snapshot.Stater); ok {
		n.Controller = &tracedStater{tracedController: tc, st: st}
	} else {
		n.Controller = &tc
	}
	inner := n.Probe
	clk.probed = inner != nil
	n.Probe = func() {
		clk.probeStart = now()
		if inner != nil {
			inner()
		}
		clk.probeEnd = now()
	}
}

// phases are one operation's phase spans.
type phases struct {
	build, traffic, enqueue     *span
	step, begin, pre, routerNIC *span
	post, shift, probe, onEject *span
	minbd, proto                *span
	telTick, telClose           *span
	encode, restore             *span
}

func (t *tracer) newPhases(fastpass bool) *phases {
	op := t.cur
	step := t.newSpan(spStep, op)
	pre := spBasePre
	if fastpass {
		pre = spFPPre
	}
	routerNIC := t.newSpan(spRouterNIC, step)
	return &phases{
		build:     t.newSpan(spBuild, op),
		traffic:   t.newSpan(spTraffic, op),
		enqueue:   t.newSpan(spEnqueue, op),
		step:      step,
		begin:     t.newSpan(spBegin, step),
		pre:       t.newSpan(pre, step),
		routerNIC: routerNIC,
		post:      t.newSpan(spPost, step),
		shift:     t.newSpan(spShift, step),
		probe:     t.newSpan(spProbe, step),
		onEject:   t.newSpan(spOnEject, routerNIC),
		minbd:     t.newSpan(spMinBD, op),
		proto:     t.newSpan(spProtocol, op),
		telTick:   t.newSpan(spTelTick, op),
		telClose:  t.newSpan(spTelClose, op),
		encode:    t.newSpan(spEncode, op),
		restore:   t.newSpan(spRestore, op),
	}
}

// tracedStep runs one Instance.Step and files its phases.
func (t *tracer) tracedStep(inst *sim.Instance, clk *stepClock, ph *phases) {
	t0 := now()
	inst.Step()
	t1 := now()
	if inst.Net == nil {
		ph.minbd.add(t0, t1)
		t.c.minbdCycles++
		return
	}
	ph.step.add(t0, t1)
	ph.begin.add(t0, clk.preStart)
	ph.pre.add(clk.preStart, clk.preEnd)
	ph.routerNIC.add(clk.preEnd, clk.postStart)
	ph.post.add(clk.postStart, clk.postEnd)
	ph.shift.add(clk.postEnd, clk.probeStart)
	if clk.probed {
		ph.probe.add(clk.probeStart, clk.probeEnd)
	}
	t.c.cycles++
	t.c.activeRouters += clk.active
}

// readCounters folds an instance's public counters into the pass totals
// once its operation has ended.
func (t *tracer) readCounters(inst *sim.Instance) {
	if n := inst.Net; n != nil {
		t.c.linkFlits += n.FlitsOnLinks
		for _, rt := range n.Routers {
			t.c.flitsRouted += rt.FlitsRouted
			t.c.switchStalls += rt.SwitchStalls
		}
	}
	if fp := inst.FP; fp != nil {
		t.c.fpPromoted += fp.Counters.Promoted
		t.c.fpRejections += fp.Counters.Rejections
		t.c.fpHeals += fp.Counters.Heals
	}
}

// synthMirror shadows sim's unexported synthRun.
type synthMirror struct {
	t    *tracer
	cfg  sim.SynthConfig
	inst *sim.Instance
	col  *stats.Collector
	gen  *traffic.Generator
	rng  *rand.Rand
	src  *snapshot.CountingSource
	pool *message.Pool
	tel  *telemetry.Metrics

	created, delivered, corrupted int64

	clk stepClock
	ph  *phases
}

// newSynthMirror shadows sim.newSynthRun.
func (t *tracer) newSynthMirror(cfg sim.SynthConfig) *synthMirror {
	// SynthConfig.setDefaults; Options defaults resolve inside Build.
	if cfg.W == 0 {
		cfg.W = 8
	}
	if cfg.H == 0 {
		cfg.H = cfg.W
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 2000
	}
	if cfg.Measure == 0 {
		cfg.Measure = 5000
	}
	if cfg.Drain == 0 {
		cfg.Drain = 3000
	}
	if cfg.SatLatency == 0 {
		cfg.SatLatency = 150
	}
	if cfg.Instrument != nil {
		cfg.Instrument(&cfg)
	}
	s := &synthMirror{t: t, cfg: cfg, ph: t.newPhases(cfg.Scheme == sim.FastPass)}
	t0 := now()
	s.inst = sim.Build(cfg.Options)
	s.ph.build.add(t0, now())
	s.col = stats.New(cfg.W*cfg.H, int64(cfg.Warmup), int64(cfg.Warmup+cfg.Measure))
	s.inst.SetOnEject(func(pkt *message.Packet) {
		a := now()
		s.delivered++
		if pkt.Corrupted {
			s.corrupted++
		}
		s.col.OnEject(pkt)
		s.tel.ObserveLatency(pkt.Latency())
		s.ph.onEject.add(a, now())
	})
	s.pool = s.inst.UsePool()
	s.gen = &traffic.Generator{
		Pattern: cfg.Pattern, Rate: cfg.Rate, W: cfg.W, H: cfg.H,
		HotspotNode: cfg.HotspotNode, HotspotFraction: cfg.HotspotFraction,
		Pool: s.pool,
	}
	s.src = snapshot.NewCountingSource(cfg.Seed + 0x5eed)
	s.rng = rand.New(s.src)
	s.tel = s.attachTelemetry()
	if s.inst.Net != nil {
		instrument(s.inst.Net, &s.clk)
	}
	return s
}

// run shadows synthRun.run.
func (s *synthMirror) run() sim.SynthResult {
	cfg, inst, ph, t := s.cfg, s.inst, s.ph, s.t
	var before runtime.MemStats
	if inst.Net == nil {
		runtime.ReadMemStats(&before)
	}
	total := int64(cfg.Warmup + cfg.Measure + cfg.Drain)
	aborted := inst.Watch != nil && inst.Watch.Tripped()
	for c := inst.Cycle(); c < total && !aborted; c++ {
		if cfg.CheckpointEvery > 0 && c > 0 && c%cfg.CheckpointEvery == 0 &&
			cfg.OnCheckpoint != nil {
			t0 := now()
			blob := s.checkpoint()
			ph.encode.add(t0, now())
			t.c.blobs++
			t.c.blobBytes += int64(len(blob))
			cfg.OnCheckpoint(c, blob)
		}
		t0 := now()
		pkts := s.gen.Tick(inst.Cycle(), s.rng)
		t1 := now()
		for _, pkt := range pkts {
			s.created++
			s.col.OnCreate(pkt)
			inst.Enqueue(pkt)
		}
		ph.traffic.add(t0, t1)
		if len(pkts) > 0 {
			ph.enqueue.add(t1, now())
			t.c.enqueued += int64(len(pkts))
		}
		t.tracedStep(inst, &s.clk, ph)
		if s.tel != nil {
			t2 := now()
			closes := inst.Cycle()%s.tel.Window() == 0
			s.tel.Tick(inst.Cycle())
			if closes {
				ph.telClose.add(t2, now())
			} else {
				ph.telTick.add(t2, now())
			}
		}
		if cfg.ProgressEvery > 0 && cfg.OnProgress != nil && inst.Cycle()%cfg.ProgressEvery == 0 {
			cfg.OnProgress(sim.Progress{
				Cycle: inst.Cycle(), Total: total,
				Created: s.created, Delivered: s.delivered,
				InFlight: s.created - s.delivered,
			})
		}
		aborted = inst.Watch != nil && inst.Watch.Tripped()
	}
	s.tel.Finish(inst.Cycle())
	if inst.Net == nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.c.minbdMallocs += after.Mallocs - before.Mallocs
	}
	t.readCounters(inst)
	return s.result()
}

// result shadows synthRun.result.
func (s *synthMirror) result() sim.SynthResult {
	cfg, inst, col := s.cfg, s.inst, s.col
	res := sim.SynthResult{
		Scheme:         cfg.Scheme,
		Pattern:        cfg.Pattern,
		Rate:           cfg.Rate,
		AvgLatency:     col.MeanLatency(),
		P99Latency:     col.Percentile(0.99),
		Throughput:     col.Throughput(),
		FlitThroughput: col.FlitThroughput(),
		Samples:        col.Samples(),
	}
	if created := col.MeasuredCreated(); created > 0 {
		res.DeliveredFrac = float64(col.Samples()) / float64(created)
	}
	res.RegularFrac, res.FastFrac, res.DroppedFrac = col.Breakdown()
	res.FastSplitRegular, res.FastSplitFast = col.FastSplit()
	res.RegularLatency = col.RegularMean()
	if inst.FP != nil {
		res.Promoted = inst.FP.Counters.Promoted
		res.Drops = inst.FP.Counters.Drops
		res.Heals = inst.FP.Counters.Heals
		res.HealFails = inst.FP.Counters.HealFails
	}
	res.Created = s.created
	res.Delivered = s.delivered
	res.Stranded = s.created - s.delivered
	res.CorruptedDelivered = s.corrupted
	if inst.Faults != nil {
		res.Faults = inst.Faults.Counters
	}
	res.TripCycle = -1
	if inst.Watch != nil {
		res.CreditLeaks = inst.Watch.Leaks()
		if inst.Watch.Tripped() {
			res.Aborted = true
			res.AbortCycle = inst.Cycle()
			res.AbortReport = inst.Watch.Report()
			res.DeadlockDetected = inst.Watch.Deadlocked()
			for _, v := range inst.Watch.Violations() {
				if v.Kind.Fatal() {
					res.TripCycle = v.Cycle
					res.TripDeliveredFrac = v.DeliveredFrac()
					break
				}
			}
		}
	}
	res.Saturated = res.Aborted ||
		!(res.AvgLatency == res.AvgLatency) ||
		res.AvgLatency > cfg.SatLatency ||
		res.DeliveredFrac < 0.9
	return res
}

// checkpoint shadows synthRun.checkpoint. The meta section is the
// untraced pass's (tracer.meta): sim's config encoder is unexported,
// and with the same meta a faithful mirror seals byte-identical blobs.
func (s *synthMirror) checkpoint() []byte {
	w := snapshot.NewWriter()
	w.U64(s.src.Draws())
	w.I64(s.created)
	w.I64(s.delivered)
	w.I64(s.corrupted)
	s.gen.SnapshotState(w)
	s.col.SnapshotState(w)
	w.Bool(s.tel != nil)
	if s.tel != nil {
		s.tel.SnapshotState(w)
	}
	w.Bool(s.inst.Trace != nil)
	if s.inst.Trace != nil {
		s.inst.Trace.SnapshotState(w)
	}
	w.Bool(s.inst.Watch != nil)
	if s.inst.Watch != nil {
		s.inst.Watch.SnapshotState(w)
	}
	if s.inst.Net != nil {
		s.inst.Net.SnapshotState(w)
	} else {
		s.inst.Deflect.SnapshotState(w)
	}
	w.Bool(s.pool != nil)
	if s.pool != nil {
		snapshot.WritePool(w, s.pool)
	}
	return snapshot.Seal(s.t.meta, w)
}

// blobMeta returns the meta section of a checkpoint blob.
func blobMeta(blob []byte) []byte {
	meta, _, err := snapshot.Open(blob)
	if err != nil {
		return nil
	}
	return meta
}

// restore shadows synthRun.restore.
func (s *synthMirror) restore(data []byte) error {
	_, r, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	s.src.Skip(r.U64())
	s.created = r.I64()
	s.delivered = r.I64()
	s.corrupted = r.I64()
	s.gen.RestoreState(r)
	s.col.RestoreState(r)
	if had := r.Bool(); had != (s.tel != nil) {
		return fmt.Errorf("bench: checkpoint telemetry presence %v but mirror has %v", had, s.tel != nil)
	} else if had {
		s.tel.RestoreState(r)
	}
	if had := r.Bool(); had != (s.inst.Trace != nil) {
		return fmt.Errorf("bench: checkpoint trace presence %v but mirror has %v", had, s.inst.Trace != nil)
	} else if had {
		s.inst.Trace.RestoreState(r)
	}
	if had := r.Bool(); had != (s.inst.Watch != nil) {
		return fmt.Errorf("bench: checkpoint watchdog presence %v but mirror has %v", had, s.inst.Watch != nil)
	} else if had {
		s.inst.Watch.RestoreState(r)
	}
	if s.inst.Net != nil {
		s.inst.Net.RestoreState(r)
	} else {
		s.inst.Deflect.RestoreState(r)
	}
	if had := r.Bool(); had != (s.pool != nil) {
		return fmt.Errorf("bench: checkpoint pool presence %v but mirror has %v", had, s.pool != nil)
	} else if had {
		snapshot.ReadPool(r, s.pool)
	}
	return r.Err()
}

// attachTelemetry shadows sim.attachTelemetry: the same slots in the
// same order, or the JSONL stream and the checkpoint bytes would differ.
func (s *synthMirror) attachTelemetry() *telemetry.Metrics {
	opt := s.cfg.Telemetry
	if opt.Window <= 0 {
		return nil
	}
	inst := s.inst
	m := telemetry.New(opt, telemetry.Meta{
		Scheme:  s.cfg.Scheme.String(),
		Pattern: s.cfg.Pattern.String(),
		Rate:    s.cfg.Rate,
		Nodes:   s.cfg.W * s.cfg.H,
	})
	m.Counter("created", func() int64 { return s.created })
	m.Counter("delivered", func() int64 { return s.delivered })
	m.Counter("corrupted", func() int64 { return s.corrupted })
	m.Counter("flits_delivered", func() int64 { return s.col.WindowCounters().Flits })
	m.BindLatency(
		func() int64 { return s.col.WindowCounters().LatSum },
		func() int64 { return s.col.WindowCounters().LatSamples },
	)
	m.Gauge("in_flight", func() int64 { return s.created - s.delivered })
	if n := inst.Net; n != nil {
		m.Counter("link_flits", func() int64 { return n.FlitsOnLinks })
		m.Counter("flits_routed", func() int64 {
			var t int64
			for _, rt := range n.Routers {
				t += rt.FlitsRouted
			}
			return t
		})
		m.Counter("switch_stalls", func() int64 {
			var t int64
			for _, rt := range n.Routers {
				t += rt.SwitchStalls
			}
			return t
		})
		m.Gauge("resident", func() int64 {
			var t int64
			for _, rt := range n.Routers {
				t += int64(rt.Resident())
			}
			return t
		})
		m.Gauge("source_backlog", func() int64 {
			var t int64
			for _, nc := range n.NICs {
				t += int64(nc.TotalSourceDepth())
			}
			return t
		})
		m.VecGauge("vc_occ", n.Routers[0].Cfg.NetVCs(), func(v int) int64 {
			var t int64
			for _, rt := range n.Routers {
				t += int64(rt.VCOccupancy(v))
			}
			return t
		})
		m.NodeGrid(len(n.Routers), func(i int) int64 { return n.Routers[i].FlitsRouted })
		m.LinkGrid(n.NumChannels(), n.LinkFlits)
	} else {
		d := inst.Deflect
		m.Gauge("resident", func() int64 { return int64(d.Resident()) })
		m.Gauge("source_backlog", func() int64 { return int64(d.SourceBacklog()) })
	}
	if fp := inst.FP; fp != nil {
		m.Counter("fp_promoted", func() int64 { return fp.Counters.Promoted })
		m.Counter("fp_fast_ejects", func() int64 { return fp.Counters.FastEjects })
		m.Counter("fp_rejections", func() int64 { return fp.Counters.Rejections })
		m.Counter("fp_parked", func() int64 { return fp.Counters.Parked })
		m.Counter("fp_drops", func() int64 { return fp.Counters.Drops })
		m.Counter("fp_regens", func() int64 { return fp.Counters.Regens })
	}
	if f := inst.Faults; f != nil {
		m.Counter("link_fails", func() int64 { return f.Counters.LinkFails })
		m.Counter("port_stalls", func() int64 { return f.Counters.PortStalls })
		m.Counter("consumer_stalls", func() int64 { return f.Counters.ConsumerStalls })
		m.Counter("flits_corrupted", func() int64 { return f.Counters.FlitsCorrupted })
		m.Counter("corruptions_detected", func() int64 { return f.Counters.CorruptionsDetected })
		m.Counter("credits_lost", func() int64 { return f.Counters.CreditsLost })
	}
	if w := inst.Watch; w != nil {
		m.Counter("credit_leaks", func() int64 { return int64(w.Leaks()) })
	}
	m.Freeze()
	return m
}

// --- the traced runner ---

func opName(cfg sim.Options, extra string) string {
	return fmt.Sprintf("%v-%dx%d%s", cfg.Scheme, cfg.W, cfg.H, extra)
}

// synthetic shadows sim.RunSynthetic.
func (t *tracer) synthetic(cfg sim.SynthConfig) sim.SynthResult {
	op := t.beginOp(opName(cfg.Options, fmt.Sprintf("@%g", cfg.Rate)))
	defer t.endOp(op)
	return t.newSynthMirror(cfg).run()
}

// resume shadows sim.ResumeSynthetic.
func (t *tracer) resume(cfg sim.SynthConfig, blob []byte) (sim.SynthResult, error) {
	op := t.beginOp(opName(cfg.Options, "/resume"))
	defer t.endOp(op)
	s := t.newSynthMirror(cfg)
	t0 := now()
	err := s.restore(blob)
	s.ph.restore.add(t0, now())
	t.c.restoreBytes += int64(len(blob))
	if err != nil {
		return sim.SynthResult{}, err
	}
	return s.run(), nil
}

// app shadows sim.RunApp.
func (t *tracer) app(cfg sim.AppConfig) sim.AppResult {
	op := t.beginOp(opName(cfg.Options, "/"+cfg.App.Name))
	defer t.endOp(op)
	if cfg.W == 0 {
		cfg.W = 8
	}
	if cfg.H == 0 {
		cfg.H = cfg.W
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 400000
	}
	if !cfg.Scheme.SupportsProtocol() {
		panic(fmt.Sprintf("bench: scheme %v cannot run protocol traffic", cfg.Scheme))
	}
	ph := t.newPhases(cfg.Scheme == sim.FastPass)
	t0 := now()
	inst := sim.Build(cfg.Options)
	ph.build.add(t0, now())
	col := stats.New(cfg.W*cfg.H, 0, cfg.MaxCycles)
	inst.SetOnEject(func(pkt *message.Packet) {
		a := now()
		col.OnEject(pkt)
		ph.onEject.add(a, now())
	})
	eng := protocol.New(inst.Net, cfg.App.Profile, cfg.Seed+0xa99)
	var clk stepClock
	instrument(inst.Net, &clk)
	quota := cfg.App.WorkQuota
	res := sim.AppResult{Scheme: cfg.Scheme, App: cfg.App.Name}
	for inst.Cycle() < cfg.MaxCycles {
		a := now()
		eng.Tick(inst.Cycle())
		ph.proto.add(a, now())
		t.tracedStep(inst, &clk, ph)
		if eng.Completed >= quota {
			break
		}
		if inst.Watch != nil && inst.Watch.Tripped() {
			break
		}
	}
	res.ExecTime = inst.Cycle()
	res.Timeout = eng.Completed < quota
	if inst.Watch != nil && inst.Watch.Tripped() {
		res.Aborted = true
		res.AbortCycle = inst.Cycle()
		res.AbortReport = inst.Watch.Report()
		res.DeadlockDetected = inst.Watch.Deadlocked()
	}
	res.AvgLatency = col.MeanLatency()
	res.P99Latency = col.Percentile(0.99)
	res.Samples = col.Samples()
	res.Completed = eng.Completed
	res.Issued = eng.Issued
	res.Stalled = eng.Stalled
	res.RegularFrac, res.FastFrac, res.DroppedFrac = col.Breakdown()
	t.c.protoCompleted += eng.Completed
	t.c.protoStalled += eng.Stalled
	t.readCounters(inst)
	return res
}

// campaign shadows campaign.Run serially: each grid cell goes through
// the synthetic mirror (so the per-cycle invariant Probe is timed), and
// its Record is assembled the way campaign's unexported cell does. The
// harness compares the journal against campaign.Run's byte for byte.
func (t *tracer) campaign(cfg campaign.Config) ([]campaign.Record, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var recs []campaign.Record
	for _, pt := range campaign.Grid(cfg) {
		t0 := now()
		res := t.synthetic(cellConfig(cfg, pt))
		t.cells = append(t.cells, cellTime{scale: pt.Scale, ns: now() - t0})
		rec := campaign.Record{
			Variant:           pt.Variant.String(),
			Scale:             pt.Scale,
			Seed:              pt.Seed,
			Created:           res.Created,
			Delivered:         res.Delivered,
			Stranded:          res.Stranded,
			Aborted:           res.Aborted,
			TripCycle:         res.TripCycle,
			TripDeliveredFrac: res.TripDeliveredFrac,
			Deadlock:          res.DeadlockDetected,
			CreditLeaks:       res.CreditLeaks,
			Heals:             res.Heals,
			HealFails:         res.HealFails,
			DeliveredFrac:     1,
		}
		if res.Created > 0 {
			rec.DeliveredFrac = float64(res.Delivered) / float64(res.Created)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// aggregate times campaign.Aggregate.
func (t *tracer) aggregate(cfg campaign.Config, recs []campaign.Record) ([]campaign.Curve, error) {
	sp := t.newSpan(spAggregate, t.root)
	t0 := now()
	curves, err := campaign.Aggregate(cfg, recs)
	sp.add(t0, now())
	return curves, err
}
