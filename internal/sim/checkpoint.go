package sim

import (
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/traffic"
)

// This file is the checkpoint/restore orchestration for synthetic runs
// (DESIGN.md §13). A checkpoint is a snapshot.Seal blob whose meta
// section is the SynthConfig (so a fresh process can rebuild the exact
// instance) and whose body is the harness state followed by the full
// network state. Restore always targets a freshly built synthRun: Build
// reconstructs wiring, closures and configuration; only mutable state
// decodes from the blob.

// encodeSynthConfig writes every config field a rebuild needs. The
// OnCheckpoint hook is the one non-value field and is deliberately
// absent — the resuming caller supplies its own.
func encodeSynthConfig(w *snapshot.Writer, cfg SynthConfig) {
	w.Int(int(cfg.Scheme))
	w.Int(cfg.W)
	w.Int(cfg.H)
	w.Int(cfg.VCs)
	w.Int(cfg.EjectCap)
	w.I64(cfg.Seed)
	w.I64(cfg.DrainPeriod)
	w.I64(cfg.SwapDuty)
	w.I64(cfg.SpinThreshold)
	w.Int(cfg.FastPassK)
	w.Bool(cfg.FPScanInjectionOnly)
	w.Bool(cfg.FPDropOnReject)
	w.Bool(cfg.FPHealing)
	w.Int(cfg.TraceCapacity)
	w.Str(cfg.Faults)
	w.F64(cfg.FaultScale)
	w.Str(cfg.Watchdog)
	w.Int(cfg.Shards)
	w.Int(int(cfg.Pattern))
	w.F64(cfg.Rate)
	w.Int(cfg.Warmup)
	w.Int(cfg.Measure)
	w.Int(cfg.Drain)
	w.F64(cfg.SatLatency)
	w.Int(cfg.HotspotNode)
	w.F64(cfg.HotspotFraction)
	w.I64(cfg.CheckpointEvery)
	w.I64(cfg.Telemetry.Window)
	w.I64(cfg.ProgressEvery)
}

func decodeSynthConfig(r *snapshot.Reader) SynthConfig {
	var cfg SynthConfig
	cfg.Scheme = Scheme(r.Int())
	cfg.W = r.Int()
	cfg.H = r.Int()
	cfg.VCs = r.Int()
	cfg.EjectCap = r.Int()
	cfg.Seed = r.I64()
	cfg.DrainPeriod = r.I64()
	cfg.SwapDuty = r.I64()
	cfg.SpinThreshold = r.I64()
	cfg.FastPassK = r.Int()
	cfg.FPScanInjectionOnly = r.Bool()
	cfg.FPDropOnReject = r.Bool()
	cfg.FPHealing = r.Bool()
	cfg.TraceCapacity = r.Int()
	cfg.Faults = r.Str()
	cfg.FaultScale = r.F64()
	cfg.Watchdog = r.Str()
	cfg.Shards = r.Int()
	cfg.Pattern = traffic.Pattern(r.Int())
	cfg.Rate = r.F64()
	cfg.Warmup = r.Int()
	cfg.Measure = r.Int()
	cfg.Drain = r.Int()
	cfg.SatLatency = r.F64()
	cfg.HotspotNode = r.Int()
	cfg.HotspotFraction = r.F64()
	cfg.CheckpointEvery = r.I64()
	cfg.Telemetry.Window = r.I64()
	cfg.ProgressEvery = r.I64()
	return cfg
}

// checkpoint seals the run's complete state. Called at the top of a
// cycle, before injection — every invariant the per-package restore
// paths rely on (drained scratch, no mid-step claims in flux) holds
// there.
//
// The two Writers live on the run and are Reset per call, so a
// steady-state checkpoint allocates only the blob Seal returns — which
// is the caller's to keep (see SynthConfig.OnCheckpoint).
func (s *synthRun) checkpoint() []byte {
	if s.ckptBody == nil {
		s.ckptMeta, s.ckptBody = snapshot.NewWriter(), snapshot.NewWriter()
	}
	s.ckptMeta.Reset()
	s.ckptBody.Reset()
	s.encode(s.ckptMeta, s.ckptBody)
	return snapshot.Seal(s.ckptMeta.Bytes(), s.ckptBody)
}

// encode writes the config into meta and the run's state into w (both
// empty on entry).
func (s *synthRun) encode(meta, w *snapshot.Writer) {
	encodeSynthConfig(meta, s.cfg)
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
	// The pool goes last: every packet still alive has been registered
	// in the table by now, so the free list only adds the recycled ones.
	w.Bool(true) // pool presence: every scheme is on the arena since v4
	snapshot.WritePool(w, s.pool)
}

// restore decodes a checkpoint blob into a freshly built run. The blob
// must have been produced by a config that builds the same shape of
// instance (OpenCheckpoint hands back exactly that config; Shards and
// the checkpoint knobs may differ — shard layout is not part of the
// encoded state).
func (s *synthRun) restore(data []byte) error {
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
		return fmt.Errorf("sim: checkpoint telemetry presence %v but instance has %v (Telemetry.Window must match the recorded config)", had, s.tel != nil)
	} else if had {
		s.tel.RestoreState(r)
	}
	if had := r.Bool(); had != (s.inst.Trace != nil) {
		return fmt.Errorf("sim: checkpoint trace presence %v but instance has %v", had, s.inst.Trace != nil)
	} else if had {
		s.inst.Trace.RestoreState(r)
	}
	if had := r.Bool(); had != (s.inst.Watch != nil) {
		return fmt.Errorf("sim: checkpoint watchdog presence %v but instance has %v", had, s.inst.Watch != nil)
	} else if had {
		s.inst.Watch.RestoreState(r)
	}
	if s.inst.Net != nil {
		s.inst.Net.RestoreState(r)
	} else {
		s.inst.Deflect.RestoreState(r)
	}
	if !r.Bool() && r.Err() == nil {
		return fmt.Errorf("sim: checkpoint carries no packet pool")
	}
	snapshot.ReadPool(r, s.pool)
	return r.Err()
}

// OpenCheckpoint validates a checkpoint blob and returns the embedded
// config. Callers may adjust Shards, CheckpointEvery and OnCheckpoint
// before handing both to ResumeSynthetic; everything else must stay as
// recorded or the rebuilt instance will not match the encoded state.
func OpenCheckpoint(data []byte) (SynthConfig, error) {
	meta, _, err := snapshot.Open(data)
	if err != nil {
		return SynthConfig{}, err
	}
	mr := snapshot.NewReader(meta)
	cfg := decodeSynthConfig(mr)
	if err := mr.Err(); err != nil {
		return SynthConfig{}, fmt.Errorf("sim: checkpoint config: %w", err)
	}
	return cfg, nil
}

// ResumeSynthetic rebuilds the instance described by cfg, restores the
// checkpointed state into it, and runs to completion. The continuation
// is bit-identical to the uninterrupted run — stats, trace contents and
// fault outcomes included.
func ResumeSynthetic(cfg SynthConfig, data []byte) (SynthResult, error) {
	s := newSynthRun(cfg)
	if err := s.restore(data); err != nil {
		return SynthResult{}, err
	}
	return s.run(), nil
}

// ValidateShards checks a shard-count request against the mesh size at
// parse time, so commands reject bad values with a clear message
// instead of clamping silently or panicking downstream.
func ValidateShards(shards, nodes int) error {
	if shards < 1 {
		return fmt.Errorf("sim: shards %d must be at least 1", shards)
	}
	if shards > nodes {
		return fmt.Errorf("sim: shards %d exceeds the %d mesh nodes (each shard needs at least one node)", shards, nodes)
	}
	return nil
}

func init() {
	snapshot.Register("sim.SynthConfig", SynthConfig{},
		[]string{"Options", "Pattern", "Rate", "Warmup", "Measure", "Drain",
			"SatLatency", "HotspotNode", "HotspotFraction", "CheckpointEvery",
			"Telemetry", "ProgressEvery"},
		[]string{"OnCheckpoint", "OnProgress", "Instrument"})
	snapshot.Register("sim.Options", Options{},
		[]string{"Scheme", "W", "H", "VCs", "EjectCap", "Seed", "DrainPeriod",
			"SwapDuty", "SpinThreshold", "FastPassK", "FPScanInjectionOnly",
			"FPDropOnReject", "FPHealing", "TraceCapacity", "Faults",
			"FaultScale", "Watchdog", "Shards"},
		nil)
	snapshot.Register("sim.synthRun", synthRun{},
		// inst covers Net/Deflect (and through them the controller,
		// faults, NICs and routers); trace/watch/pool encode via their
		// own sections.
		[]string{"src", "created", "delivered", "corrupted", "gen", "col",
			"inst", "pool", "tel"},
		// ckptMeta/ckptBody are the reused checkpoint encoders: scratch,
		// Reset before every encode.
		[]string{"cfg", "rng", "ckptMeta", "ckptBody"})
	snapshot.Register("sim.Instance", Instance{},
		// Net/Deflect are the roots; FP, Pit and Faults are reached
		// through Net's controller and injector hooks.
		[]string{"Net", "Deflect", "FP", "Pit", "Trace", "Faults", "Watch"},
		[]string{"Opts", "Mesh"})
}
