package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/message"
	"repro/internal/parallel"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// SynthConfig describes one synthetic-traffic run (a single point on a
// Fig. 7 curve).
type SynthConfig struct {
	Options
	Pattern traffic.Pattern
	Rate    float64 // packets/node/cycle offered

	// Warmup/Measure/Drain are the methodology windows in cycles
	// (0 → 2000/5000/3000). Injection runs through all three; latency
	// samples come from packets created in the measure window.
	Warmup, Measure, Drain int

	// SatLatency is the average-latency ceiling beyond which the point
	// counts as saturated (0 → 150 cycles).
	SatLatency float64

	// HotspotNode / HotspotFraction parameterise the Hotspot pattern
	// (ignored by other patterns).
	HotspotNode     int
	HotspotFraction float64

	// CheckpointEvery, when positive, snapshots the full simulator state
	// every that many cycles (at the top of the cycle, before injection)
	// and hands the sealed blob to OnCheckpoint. The blob embeds this
	// config; OpenCheckpoint recovers it and ResumeSynthetic continues
	// the run bit-identically, including in a fresh process. The blob is
	// a fresh slice the callback owns: it may be retained past the call
	// (later checkpoints never write into it) and resumed from at any
	// time.
	CheckpointEvery int64
	OnCheckpoint    func(cycle int64, blob []byte)

	// Telemetry enables the windowed metrics subsystem when its Window
	// is positive (DESIGN.md §14). Window travels in the checkpoint
	// config — a resumed run keeps the original boundaries — while the
	// sinks are transient and re-attached by the driver.
	Telemetry telemetry.Options

	// ProgressEvery, when positive, invokes OnProgress every that many
	// cycles with a deterministic status sample. The hook is transient
	// (never checkpointed) and must not mutate simulation state.
	ProgressEvery int64
	OnProgress    func(Progress)

	// Instrument, when set, runs once per built run — after defaults
	// resolve, before the instance is constructed — so a driver can
	// attach per-run telemetry sinks to a config it fans out across
	// workers (the sweep command wires per-point buffers this way).
	Instrument func(cfg *SynthConfig)
}

func (c *SynthConfig) setDefaults() {
	c.Options.setDefaults()
	if c.Warmup == 0 {
		c.Warmup = 2000
	}
	if c.Measure == 0 {
		c.Measure = 5000
	}
	if c.Drain == 0 {
		c.Drain = 3000
	}
	if c.SatLatency == 0 {
		c.SatLatency = 150
	}
}

// Validate is Options.Validate plus the synthetic knobs: an offered rate
// outside [0, 1] packets/node/cycle measures nothing (NaN latencies), a
// pattern undefined on the mesh panics in the first injection, and a
// negative window or period is not "default" or "off".
func (c SynthConfig) Validate() error {
	if err := c.Options.Validate(); err != nil {
		return err
	}
	if !(c.Rate >= 0 && c.Rate <= 1) {
		return fmt.Errorf("sim: rate %v is outside [0, 1] packets/node/cycle", c.Rate)
	}
	c.Options.setDefaults()
	if err := c.Pattern.Check(c.W, c.H); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Warmup < 0 || c.Measure < 0 || c.Drain < 0 {
		return fmt.Errorf("sim: negative window (warmup %d, measure %d, drain %d)", c.Warmup, c.Measure, c.Drain)
	}
	if c.CheckpointEvery < 0 || c.Telemetry.Window < 0 {
		return fmt.Errorf("sim: negative period (checkpoint every %d, telemetry window %d); 0 turns either off", c.CheckpointEvery, c.Telemetry.Window)
	}
	return nil
}

// SynthResult is one measured point.
type SynthResult struct {
	Scheme  Scheme
	Pattern traffic.Pattern
	Rate    float64

	AvgLatency     float64
	P99Latency     float64
	Throughput     float64 // accepted packets/node/cycle
	FlitThroughput float64
	Samples        int
	DeliveredFrac  float64 // of packets created in the window

	// Fig. 13 / Fig. 9 extras (FastPass runs).
	RegularFrac, FastFrac, DroppedFrac float64
	FastSplitRegular, FastSplitFast    float64
	RegularLatency                     float64 // mean over never-promoted packets
	Promoted, Drops                    int64

	Saturated bool

	// Robustness accounting (fault/watchdog runs; zero otherwise).
	// Created/Delivered count over the whole run (all windows);
	// Stranded is their difference at the end — packets wedged in the
	// network, typically by permanent faults. CorruptedDelivered counts
	// packets that arrived flagged by the checksum check.
	Created            int64
	Delivered          int64
	Stranded           int64
	CorruptedDelivered int64

	// Aborted is set when the invariant watchdog tripped fatally;
	// AbortCycle/AbortReport carry the structured diagnostic.
	// TripCycle/TripDeliveredFrac come from the first fatal violation
	// itself — the cycle of detection and the delivered fraction at
	// trip time, the quantities reliability campaigns aggregate.
	// TripCycle is -1 when no watchdog tripped.
	Aborted           bool
	AbortCycle        int64
	AbortReport       string
	TripCycle         int64
	TripDeliveredFrac float64
	DeadlockDetected  bool
	CreditLeaks       int

	// Heals/HealFails count FastPass lane-schedule re-derivations
	// (FPHealing runs; zero otherwise).
	Heals     int64
	HealFails int64

	// Faults snapshots the injector's counters (zero when no plan).
	Faults faults.Counters
}

// synthRun is one synthetic experiment in progress: the built instance
// plus the harness state around it (collector, generator, injection
// RNG, lifetime counters). It exists so a run can be checkpointed at a
// cycle boundary and resumed — RunSynthetic is newSynthRun().run().
type synthRun struct {
	cfg  SynthConfig
	inst *Instance
	col  *stats.Collector
	gen  *traffic.Generator
	rng  *rand.Rand
	src  *snapshot.CountingSource
	pool *message.Pool
	tel  *telemetry.Metrics // nil unless cfg.Telemetry.Window > 0

	created, delivered, corrupted int64

	// ckptMeta/ckptBody are checkpoint()'s encoders, created on the first
	// checkpoint and reused thereafter.
	ckptMeta, ckptBody *snapshot.Writer
}

// newSynthRun builds the instance and wires the harness around it.
func newSynthRun(cfg SynthConfig) *synthRun {
	cfg.setDefaults()
	if cfg.Instrument != nil {
		cfg.Instrument(&cfg)
	}
	s := &synthRun{cfg: cfg}
	s.inst = Build(cfg.Options)
	s.col = stats.New(cfg.W*cfg.H, int64(cfg.Warmup), int64(cfg.Warmup+cfg.Measure))
	s.inst.SetOnEject(func(pkt *message.Packet) {
		s.delivered++
		if pkt.Corrupted {
			s.corrupted++
		}
		s.col.OnEject(pkt)
		s.tel.ObserveLatency(pkt.Latency())
	})
	s.pool = s.inst.UsePool()
	s.src = snapshot.NewCountingSource(cfg.Seed + 0x5eed)
	s.rng = rand.New(s.src)
	s.gen = &traffic.Generator{
		Pattern: cfg.Pattern, Rate: cfg.Rate, W: cfg.W, H: cfg.H,
		HotspotNode: cfg.HotspotNode, HotspotFraction: cfg.HotspotFraction,
		Pool: s.pool, Stream: s.src,
	}
	s.tel = attachTelemetry(s)
	return s
}

// run advances from the current cycle (0 fresh, the checkpoint cycle
// after a restore) to the end of the drain window and scores the point.
func (s *synthRun) run() SynthResult {
	cfg := s.cfg
	inst := s.inst
	total := int64(cfg.Warmup + cfg.Measure + cfg.Drain)
	aborted := inst.Watch != nil && inst.Watch.Tripped()
	for c := inst.Cycle(); c < total && !aborted; c++ {
		if cfg.CheckpointEvery > 0 && c > 0 && c%cfg.CheckpointEvery == 0 &&
			cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(c, s.checkpoint())
		}
		for _, pkt := range s.gen.Tick(inst.Cycle(), s.rng) {
			s.created++
			s.col.OnCreate(pkt)
			inst.Enqueue(pkt)
		}
		inst.Step()
		// inst.Cycle() is now the completed-cycle count; the window
		// clock and the progress stride both key off it, in the serial
		// stretch between Steps where every shard effect has merged.
		s.tel.Tick(inst.Cycle())
		if cfg.ProgressEvery > 0 && cfg.OnProgress != nil && inst.Cycle()%cfg.ProgressEvery == 0 {
			cfg.OnProgress(Progress{
				Cycle: inst.Cycle(), Total: total,
				Created: s.created, Delivered: s.delivered,
				InFlight: s.created - s.delivered,
			})
		}
		aborted = inst.Watch != nil && inst.Watch.Tripped()
	}
	s.tel.Finish(inst.Cycle())
	return s.result()
}

// result scores the finished run.
func (s *synthRun) result() SynthResult {
	cfg, inst, col := s.cfg, s.inst, s.col
	created, delivered, corrupted := s.created, s.delivered, s.corrupted
	res := SynthResult{
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
	res.Created = created
	res.Delivered = delivered
	res.Stranded = created - delivered
	res.CorruptedDelivered = corrupted
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
	// Saturation: runaway latency, or measured packets that never made
	// it out even after the drain window. An aborted run is by
	// definition not a sustainable operating point.
	res.Saturated = res.Aborted ||
		!(res.AvgLatency == res.AvgLatency) || // NaN: nothing delivered
		res.AvgLatency > cfg.SatLatency ||
		res.DeliveredFrac < 0.9
	return res
}

// RunSynthetic executes one synthetic point.
func RunSynthetic(cfg SynthConfig) SynthResult {
	return newSynthRun(cfg).run()
}

// SweepLatencyJobs measures a latency-vs-injection-rate curve (one
// Fig. 7 series) with the given worker count (0 = one worker per core,
// 1 = serial). Rates start in order through parallel.MapUntil, cut by
// padCutoff: once the completed prefix holds two consecutive saturated
// points no further rate starts, so at -j 1 nothing past the cutoff is
// simulated and at -j N only the points already running when it became
// known are. Both emit field-identical results for the same seed — the
// determinism contract the parallel runner rests on.
//
// Rates two past the first sustained saturation are reported as inert
// padded points: Saturated is set, latencies are NaN ("no samples") and
// counters are zero, exactly as a run that delivered nothing would
// report — never a stale copy of the last measured point.
func SweepLatencyJobs(base SynthConfig, rates []float64, jobs int) []SynthResult {
	out := parallel.MapUntil(jobs, rates, func(r float64) SynthResult {
		cfg := base
		cfg.Rate = r
		return RunSynthetic(cfg)
	}, padCutoff)
	for i := PadCutoff(out); i < len(out); i++ {
		out[i] = paddedPoint(base, rates[i])
	}
	return out
}

// PadCutoff reports the index of the first padded point of a sweep
// (len(out) if none): from it on, a point was never simulated or was
// started before the cutoff was known. Drivers that attach per-point
// side channels (telemetry streams) drop those points' channels, so
// serial and parallel sweeps emit identical bytes.
func PadCutoff(out []SynthResult) int {
	n, _ := padCutoff(out)
	return n
}

// padCutoff is the stop-two-after-saturation rule, SweepLatencyJobs's
// MapUntil cut: the cutoff is the point after the first two consecutive
// saturated points, and fixed reports whether the given prefix of
// measured results already contains them. A pure function of the
// Saturated flags, it never moves once fixed.
func padCutoff(out []SynthResult) (n int, fixed bool) {
	for i := 1; i < len(out); i++ {
		if out[i-1].Saturated && out[i].Saturated {
			return i + 1, true
		}
	}
	return len(out), false
}

// paddedPoint is the inert stand-in for a rate that was never
// simulated: identity fields and the Saturated marker are set, every
// measurement matches what an empty collector reports — NaN ("no
// samples") for the latency means, zero for counts and fractions.
func paddedPoint(base SynthConfig, rate float64) SynthResult {
	nan := math.NaN()
	return SynthResult{
		Scheme:           base.Scheme,
		Pattern:          base.Pattern,
		Rate:             rate,
		AvgLatency:       nan,
		P99Latency:       nan,
		FastSplitRegular: nan,
		FastSplitFast:    nan,
		RegularLatency:   nan,
		TripCycle:        -1,
		Saturated:        true,
	}
}

// SaturationThroughputJobs bisects the highest non-saturated injection
// rate and returns the accepted throughput there (a Fig. 8 bar), with
// the given worker count (0 = one worker per core, 1 = serial). The two
// bracket probes go through parallel.MapUntil, cut after lo when lo is
// saturated: at -j 1 the hi probe is then skipped, at -j N it runs
// speculatively alongside lo. The bisection itself stays sequential —
// each midpoint depends on the previous verdict — so results are
// identical at any worker count.
func SaturationThroughputJobs(base SynthConfig, lo, hi float64, iters, jobs int) (rate float64, throughput float64) {
	if iters == 0 {
		iters = 7
	}
	type probe struct {
		ok  bool
		thr float64
	}
	check := func(r float64) probe {
		cfg := base
		cfg.Rate = r
		res := RunSynthetic(cfg)
		return probe{ok: !res.Saturated, thr: res.Throughput}
	}
	brackets := parallel.MapUntil(jobs, []float64{lo, hi}, check, func(done []probe) (int, bool) {
		return 1, len(done) > 0 && !done[0].ok
	})
	if !brackets[0].ok {
		return lo, 0
	}
	if brackets[1].ok {
		return hi, brackets[1].thr
	}
	bestRate, bestThr := lo, brackets[0].thr
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if p := check(mid); p.ok {
			lo, bestRate, bestThr = mid, mid, p.thr
		} else {
			hi = mid
		}
	}
	return bestRate, bestThr
}
