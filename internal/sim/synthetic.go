package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/message"
	"repro/internal/network"
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

	// stopWhenSaturated ends the run, Saturated, as soon as a check every
	// 64 cycles finds the verdict certain
	// (stats.Collector.CertainSaturated); only the verdict is then
	// meaningful. SaturationThroughput sets it for its probes, whose
	// throughput it reads only when sustained. Not checkpointed.
	stopWhenSaturated bool

	// Instrument, when set, runs once per built run — after defaults
	// resolve, before the instance is constructed — so a driver can
	// attach per-run telemetry sinks to a config it fans out across
	// workers (the sweep command wires per-point buffers this way).
	Instrument func(cfg *SynthConfig)
}

func (c *SynthConfig) setDefaults() {
	c.Options.setDefaults()
	c.Warmup, c.Measure, c.Drain = cmp.Or(c.Warmup, 2000), cmp.Or(c.Measure, 5000), cmp.Or(c.Drain, 3000)
	c.SatLatency = cmp.Or(c.SatLatency, 150)
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

// SynthRun is one synthetic experiment in progress: the built instance
// plus the harness around it (collector, generator, injection RNG,
// lifetime counters), which is the run's Source. It exists so a run can
// be checkpointed at a cycle boundary and resumed, and so a driver can
// set Inst.Hook before Run.
type SynthRun struct {
	Inst *Instance

	cfg  SynthConfig
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

	// blob is a resumed run's checkpoint, which Run restores first.
	blob    []byte
	resumed bool
}

// NewSynthetic builds a synthetic run without starting it: the instance
// and the harness wired around it. RunSynthetic is its Run.
func NewSynthetic(cfg SynthConfig) *SynthRun {
	cfg.setDefaults()
	if cfg.Instrument != nil {
		cfg.Instrument(&cfg)
	}
	s := &SynthRun{cfg: cfg, Inst: Build(cfg.Options)}
	s.col = stats.New(cfg.W*cfg.H, int64(cfg.Warmup), int64(cfg.Warmup+cfg.Measure))
	s.Inst.SetOnEject(func(pkt *message.Packet) {
		s.Inst.phase(network.PhaseEject)
		s.delivered++
		if pkt.Corrupted {
			s.corrupted++
		}
		s.col.OnEject(pkt)
		s.tel.ObserveLatency(pkt.Latency())
		s.Inst.phase(network.PhaseEjectEnd)
	})
	s.pool = s.Inst.UsePool()
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

// Run restores a resumed run's checkpoint, steps the instance's loop
// to the end of the drain window and scores the point. Only the
// restore can fail.
func (s *SynthRun) Run() (SynthResult, error) {
	if s.resumed {
		s.Inst.phase(network.PhaseRestore)
		if err := s.restore(s.blob); err != nil {
			return SynthResult{}, err
		}
	}
	s.Inst.Run(s, s.total())
	s.tel.Finish(s.Inst.Cycle())
	return s.result(), nil
}

func (s *SynthRun) total() int64 { return int64(s.cfg.Warmup + s.cfg.Measure + s.cfg.Drain) }

// Tick opens a cycle: the checkpoint when one is due, then injection.
func (s *SynthRun) Tick(c int64) {
	if cfg := &s.cfg; cfg.CheckpointEvery > 0 && c > 0 && c%cfg.CheckpointEvery == 0 && cfg.OnCheckpoint != nil {
		s.Inst.phase(network.PhaseCheckpoint)
		cfg.OnCheckpoint(c, s.checkpoint())
	}
	s.Inst.phase(network.PhaseSource)
	pkts := s.gen.Tick(c, s.rng)
	s.Inst.phase(network.PhaseEnqueue)
	for _, pkt := range pkts {
		s.created++
		s.col.OnCreate(pkt)
		s.Inst.Enqueue(pkt)
	}
}

// Tock keys the window clock and the progress stride off the completed
// cycle count c, between steps. A synthetic run ends on its cycle
// budget, or a stopWhenSaturated one on a certain verdict.
func (s *SynthRun) Tock(c int64) bool {
	s.Inst.phase(network.PhaseTelemetry)
	s.tel.Tick(c)
	cfg := &s.cfg
	if cfg.ProgressEvery > 0 && cfg.OnProgress != nil && c%cfg.ProgressEvery == 0 {
		cfg.OnProgress(Progress{Cycle: c, Total: s.total(), Created: s.created,
			Delivered: s.delivered, InFlight: s.created - s.delivered})
	}
	return cfg.stopWhenSaturated && c%64 == 0 && s.col.CertainSaturated(c, cfg.SatLatency)
}

// result scores the finished run.
func (s *SynthRun) result() SynthResult {
	cfg, inst, col := s.cfg, s.Inst, s.col
	res := SynthResult{
		Scheme:             cfg.Scheme,
		Pattern:            cfg.Pattern,
		Rate:               cfg.Rate,
		AvgLatency:         col.MeanLatency(),
		P99Latency:         col.Percentile(0.99),
		Throughput:         col.Throughput(),
		FlitThroughput:     col.FlitThroughput(),
		Samples:            col.Samples(),
		RegularLatency:     col.RegularMean(),
		Created:            s.created,
		Delivered:          s.delivered,
		Stranded:           s.created - s.delivered,
		CorruptedDelivered: s.corrupted,
		TripCycle:          -1,
	}
	if created := col.MeasuredCreated(); created > 0 {
		res.DeliveredFrac = float64(col.Samples()) / float64(created)
	}
	res.RegularFrac, res.FastFrac, res.DroppedFrac = col.Breakdown()
	res.FastSplitRegular, res.FastSplitFast = col.FastSplit()
	if inst.FP != nil {
		c := inst.FP.Counters
		res.Promoted, res.Drops, res.Heals, res.HealFails = c.Promoted, c.Drops, c.Heals, c.HealFails
	}
	if inst.Faults != nil {
		res.Faults = inst.Faults.Counters
	}
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
	// definition not a sustainable operating point, and a probe Tock
	// stopped early was certain to be saturated.
	res.Saturated = res.Aborted ||
		!(res.AvgLatency == res.AvgLatency) || // NaN: nothing delivered
		res.AvgLatency > cfg.SatLatency ||
		res.DeliveredFrac < stats.MinDelivered ||
		cfg.stopWhenSaturated && col.CertainSaturated(inst.Cycle(), cfg.SatLatency)
	return res
}

// RunSynthetic executes one synthetic point. A fresh run has nothing to
// restore, so Run's error is nil. The run's memory serves later runs
// (SynthRun.release).
func RunSynthetic(cfg SynthConfig) SynthResult {
	s := NewSynthetic(cfg)
	res, _ := s.Run()
	s.release()
	return res
}

// release hands the instance, the injection stream and the histogram
// to later runs.
func (s *SynthRun) release() {
	s.Inst.release(s.pool)
	s.src.Release()
	s.col.Release()
}

// SweepLatency measures a latency-vs-injection-rate curve (one Fig. 7
// series) serially: rates run in order, and once two consecutive points
// have saturated no further rate is simulated. Those rates are reported
// as inert padded points: Saturated is set, latencies are NaN ("no
// samples") and counters are zero, exactly as a run that delivered
// nothing would report — never a stale copy of the last measured point.
// A sweep is one cell of an experiment; callers run many at once.
func SweepLatency(base SynthConfig, rates []float64) []SynthResult {
	out := make([]SynthResult, len(rates))
	for i, r := range rates {
		if i >= 2 && out[i-2].Saturated && out[i-1].Saturated {
			out[i] = paddedPoint(base, r)
			continue
		}
		cfg := base
		cfg.Rate = r
		out[i] = RunSynthetic(cfg)
	}
	return out
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

// SaturationThroughput bisects the highest non-saturated injection
// rate and returns the accepted throughput there (a Fig. 8 bar). It
// probes lo first and hi only when lo is not saturated; each midpoint
// then depends on the previous verdict, so the whole bisection is one
// serial cell. A probe stops once its verdict is certainly "saturated":
// only a sustained probe's throughput is read.
func SaturationThroughput(base SynthConfig, lo, hi float64, iters int) (rate float64, throughput float64) {
	check := func(r float64) (bool, float64) {
		cfg := base
		cfg.Rate, cfg.stopWhenSaturated = r, true
		res := RunSynthetic(cfg)
		return !res.Saturated, res.Throughput
	}
	ok, bestThr := check(lo)
	if !ok {
		return lo, 0
	}
	if ok, thr := check(hi); ok {
		return hi, thr
	}
	bestRate := lo
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if ok, thr := check(mid); ok {
			lo, bestRate, bestThr = mid, mid, thr
		} else {
			hi = mid
		}
	}
	return bestRate, bestThr
}
