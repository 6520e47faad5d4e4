package sim

import "repro/internal/telemetry"

// Progress is a periodic status sample for long runs, handed to
// SynthConfig.OnProgress every ProgressEvery cycles. All values come
// from the harness's own deterministic counters — rate estimation
// against wall time is the caller's business (the simulator never reads
// a clock).
type Progress struct {
	Cycle     int64 // completed cycles
	Total     int64 // warmup + measure + drain
	Created   int64 // packets injected so far
	Delivered int64 // packets ejected so far
	InFlight  int64 // Created - Delivered
}

// attachTelemetry builds the run's Metrics from the layers the built
// instance actually has: every counter is a closure over a layer-owned
// cumulative int64 that is already part of the checkpoint format, so a
// restored run's window deltas continue exactly where the original's
// left off. Returns nil when telemetry is disabled (Window == 0).
//
// Slot registration order is fixed here and nowhere else — it defines
// the JSONL field order the determinism tests compare byte-for-byte.
func attachTelemetry(s *SynthRun) *telemetry.Metrics {
	opt := s.cfg.Telemetry
	if opt.Window <= 0 {
		return nil
	}
	inst := s.Inst
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
		n.Telemetry(m)
	} else {
		// MinBD's deflection network has no VCs, crossbar or credit
		// links — the per-structure slots and heatmap grids do not
		// apply; the scalar population gauges do.
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
