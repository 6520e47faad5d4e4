package sim

import (
	"fmt"

	"repro/internal/snapshot"
)

// This file is the checkpoint/restore orchestration for synthetic runs
// (DESIGN.md §13). A checkpoint is a snapshot.Seal blob whose meta
// section is the SynthConfig (so a fresh process can rebuild the exact
// instance) and whose body is the harness state followed by the full
// network state. Restore always targets a freshly built SynthRun: Build
// reconstructs wiring, closures and configuration; only mutable state
// decodes from the blob.

// state walks every config field a rebuild needs. The OnCheckpoint hook
// is the one non-value field and is deliberately absent — the resuming
// caller supplies its own — and so is Shards, which nothing reads.
func (cfg *SynthConfig) state(st snapshot.State) {
	snapshot.Int(st, &cfg.Scheme)
	snapshot.Int(st, &cfg.W, &cfg.H, &cfg.VCs, &cfg.EjectCap)
	snapshot.Int(st, &cfg.Seed, &cfg.DrainPeriod, &cfg.SwapDuty, &cfg.SpinThreshold)
	snapshot.Int(st, &cfg.FastPassK)
	st.Bool(&cfg.FPScanInjectionOnly, &cfg.FPDropOnReject, &cfg.FPHealing)
	snapshot.Int(st, &cfg.TraceCapacity)
	st.Str(&cfg.Faults)
	st.F64(&cfg.FaultScale)
	st.Str(&cfg.Watchdog)
	snapshot.Int(st, &cfg.Pattern)
	st.F64(&cfg.Rate)
	snapshot.Int(st, &cfg.Warmup, &cfg.Measure, &cfg.Drain)
	st.F64(&cfg.SatLatency)
	snapshot.Int(st, &cfg.HotspotNode)
	st.F64(&cfg.HotspotFraction)
	snapshot.Int(st, &cfg.CheckpointEvery, &cfg.Telemetry.Window, &cfg.ProgressEvery)
}

// checkpoint seals the run's complete state. Called at the top of a
// cycle, before injection — every invariant the per-package restore
// paths rely on (drained scratch, no mid-step claims in flux) holds
// there.
//
// The two Writers live on the run and are Reset per call, so a
// steady-state checkpoint allocates only the blob Seal returns — which
// is the caller's to keep (see SynthConfig.OnCheckpoint).
func (s *SynthRun) checkpoint() []byte {
	if s.ckptBody == nil {
		s.ckptMeta, s.ckptBody = snapshot.NewWriter(), snapshot.NewWriter()
	}
	s.ckptMeta.Reset()
	s.ckptBody.Reset()
	s.cfg.state(s.ckptMeta.State())
	s.state(s.ckptBody.State())
	return snapshot.Seal(s.ckptMeta.Bytes(), s.ckptBody)
}

// restore decodes a checkpoint blob into a freshly built run. The blob
// must have been produced by a config that builds the same shape of
// instance (OpenCheckpoint hands back exactly that config; the
// checkpoint knobs may differ).
func (s *SynthRun) restore(data []byte) error {
	_, r, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	r.Arena(s.pool)
	return s.state(r.State())
}

// state walks the harness state followed by the full network state and
// reports a decode failure. Only a restore can find a section the
// instance lacks, or the reverse.
func (s *SynthRun) state(st snapshot.State) error {
	draws := s.src.Draws()
	if snapshot.Uint(st, &draws); st.Decoding() {
		// A run draws a value or two per node and cycle: a count past
		// sixteen is corrupt, and replaying it would spin.
		total := uint64(s.cfg.Warmup + s.cfg.Measure + s.cfg.Drain + 1)
		if max := 16 * uint64(s.cfg.W*s.cfg.H) * total; draws > max {
			st.Fail("sim: %d injection draws, at most %d in %d cycles", draws, max, total)
		} else {
			s.src.Skip(draws)
		}
	}
	snapshot.Int(st, &s.created, &s.delivered, &s.corrupted)
	st.Walk(s.gen)
	st.Walk(s.col)
	for _, sec := range [...]struct {
		what string
		have bool
		st   snapshot.Stater
	}{
		{"telemetry (Telemetry.Window must match the recorded config)", s.tel != nil, s.tel},
		{"trace", s.Inst.Trace != nil, s.Inst.Trace},
		{"watchdog", s.Inst.Watch != nil, s.Inst.Watch},
	} {
		if had := st.Present(sec.have); had != sec.have {
			return fmt.Errorf("sim: checkpoint %s presence %v but instance has %v", sec.what, had, sec.have)
		} else if had {
			st.Walk(sec.st)
		}
	}
	if s.Inst.Net != nil {
		st.Walk(s.Inst.Net)
	} else {
		st.Walk(s.Inst.Deflect)
	}
	// The pool goes last: every packet still alive has been registered
	// in the table by now, so the free list only adds the recycled ones.
	// Its presence flag dates from before every scheme was on the arena.
	if !st.Present(true) && st.Err() == nil {
		return fmt.Errorf("sim: checkpoint carries no packet pool")
	}
	st.Pool(s.pool)
	return st.Err()
}

// OpenCheckpoint validates a checkpoint blob and returns the embedded
// config. Callers may adjust CheckpointEvery and OnCheckpoint before
// handing both to ResumeSynthetic; everything else must stay as recorded
// or the rebuilt instance will not match the encoded state.
func OpenCheckpoint(data []byte) (SynthConfig, error) {
	meta, _, err := snapshot.Open(data)
	if err != nil {
		return SynthConfig{}, err
	}
	r := snapshot.NewReader(meta)
	var cfg SynthConfig
	cfg.state(r.State())
	if err := r.Err(); err != nil {
		return SynthConfig{}, fmt.Errorf("sim: checkpoint config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return SynthConfig{}, fmt.Errorf("sim: checkpoint config: %w", err)
	}
	return cfg, nil
}

// NewResumed builds the instance described by cfg for a resumed run:
// its Run restores the checkpointed state first, then continues
// bit-identically to the uninterrupted run — stats, trace contents and
// fault outcomes included. A cfg Validate rejects is returned as its
// error, before anything is built.
func NewResumed(cfg SynthConfig, data []byte) (*SynthRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := NewSynthetic(cfg)
	s.blob, s.resumed = data, true
	return s, nil
}

// ResumeSynthetic resumes a checkpoint and runs it to completion. The
// run's memory serves later runs (SynthRun.release), whether or not the
// restore succeeded.
func ResumeSynthetic(cfg SynthConfig, data []byte) (SynthResult, error) {
	s, err := NewResumed(cfg, data)
	if err != nil {
		return SynthResult{}, err
	}
	res, err := s.Run()
	s.release()
	return res, err
}

func init() {
	snapshot.Register("sim.SynthConfig", SynthConfig{},
		[]string{"Options", "Pattern", "Rate", "Warmup", "Measure", "Drain",
			"SatLatency", "HotspotNode", "HotspotFraction", "CheckpointEvery",
			"Telemetry", "ProgressEvery"},
		[]string{"OnCheckpoint", "OnProgress", "Instrument", "stopWhenSaturated"})
	snapshot.Register("sim.Options", Options{},
		[]string{"Scheme", "W", "H", "VCs", "EjectCap", "Seed", "DrainPeriod",
			"SwapDuty", "SpinThreshold", "FastPassK", "FPScanInjectionOnly",
			"FPDropOnReject", "FPHealing", "TraceCapacity", "Faults",
			"FaultScale", "Watchdog"},
		[]string{"Shards"}) // read by nothing
	snapshot.Register("sim.SynthRun", SynthRun{},
		// Inst covers Net/Deflect (and through them the controller,
		// faults, NICs and routers); trace/watch/pool encode via their
		// own sections.
		[]string{"src", "created", "delivered", "corrupted", "gen", "col",
			"Inst", "pool", "tel"},
		// ckptMeta/ckptBody are the reused checkpoint encoders: scratch,
		// Reset before every encode. blob is the checkpoint itself.
		[]string{"cfg", "rng", "ckptMeta", "ckptBody", "blob", "resumed"})
	snapshot.Register("sim.Instance", Instance{},
		// Net/Deflect are the roots; FP, Pit and Faults are reached
		// through Net's controller and injector hooks.
		[]string{"Net", "Deflect", "FP", "Pit", "Trace", "Faults", "Watch"},
		[]string{"Opts", "Mesh", "Hook", "released"})
}
