package sim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/network"
	"repro/internal/workload"
)

// finish runs s to completion. A test that restores by hand leaves Run
// nothing to restore, so its error is nil.
func finish(s *SynthRun) SynthResult {
	res, _ := s.Run()
	return res
}

// observed is everything a synthetic run emits: its result, every
// checkpoint blob, the telemetry stream, the retained trace and — when
// a recording hook was attached — the phases it reported.
type observed struct {
	res    SynthResult
	blobs  [][]byte
	jsonl  []byte
	trace  string
	phases []network.Phase
}

// hookBase is checkpointBase with telemetry and a checkpoint every 450
// cycles: blobs at 450, 900 and 1350 of the 1800-cycle run.
func hookBase(s Scheme) SynthConfig {
	cfg := checkpointBase(s)
	cfg.Telemetry.Window = 250
	cfg.CheckpointEvery = 450
	return cfg
}

// observe runs cfg, resumed from blob when it is non-nil, with a
// recording hook when record is set.
func observe(t *testing.T, cfg SynthConfig, blob []byte, record bool) observed {
	t.Helper()
	var o observed
	var buf bytes.Buffer
	cfg.Telemetry.JSONL = &buf
	cfg.OnCheckpoint = func(_ int64, b []byte) { o.blobs = append(o.blobs, b) }
	var r *SynthRun
	if blob == nil {
		r = NewSynthetic(cfg)
	} else {
		var err error
		if r, err = NewResumed(cfg, blob); err != nil {
			t.Fatalf("NewResumed: %v", err)
		}
	}
	if record {
		r.Inst.Hook = func(p network.Phase) { o.phases = append(o.phases, p) }
	}
	res, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	o.res, o.jsonl, o.trace = res, buf.Bytes(), traceText(t, r.Inst.Trace)
	return o
}

// sameRun fails unless the hooked run emitted exactly what the plain
// one did, and the hook heard it.
func sameRun(t *testing.T, plain, hooked observed) {
	t.Helper()
	if got, want := resultFingerprint(hooked.res), resultFingerprint(plain.res); got != want {
		t.Errorf("the hook changed the result\nwith:    %s\nwithout: %s", got, want)
	}
	if !slices.EqualFunc(hooked.blobs, plain.blobs, bytes.Equal) {
		t.Errorf("the hook changed the checkpoint blobs (%d vs %d)", len(hooked.blobs), len(plain.blobs))
	}
	if !bytes.Equal(hooked.jsonl, plain.jsonl) {
		t.Errorf("the hook changed the telemetry stream (%d vs %d bytes)", len(hooked.jsonl), len(plain.jsonl))
	}
	if hooked.trace != plain.trace {
		t.Error("the hook changed the retained trace")
	}
	if len(hooked.phases) == 0 {
		t.Error("the hook heard no phase")
	}
}

// TestHookChangesNothing: a recording hook observes only. For every
// scheme, a fresh run and a run resumed from the middle checkpoint emit
// the same result, checkpoint blobs, telemetry bytes and trace with the
// hook as without it; so does an application run.
func TestHookChangesNothing(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := hookBase(scheme)
			fresh := observe(t, cfg, nil, false)
			sameRun(t, fresh, observe(t, cfg, nil, true))
			if len(fresh.blobs) != 3 {
				t.Fatalf("%d checkpoints, want 3", len(fresh.blobs))
			}
			rcfg, err := OpenCheckpoint(fresh.blobs[1])
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			rcfg.CheckpointEvery = cfg.CheckpointEvery
			sameRun(t, observe(t, rcfg, fresh.blobs[1], false), observe(t, rcfg, fresh.blobs[1], true))
		})
	}
	t.Run("App", func(t *testing.T) {
		app := workload.MustGet("FFT")
		app.WorkQuota = 300
		cfg := AppConfig{Options: Options{Scheme: FastPass, W: 4, H: 4, Seed: 3, TraceCapacity: 512, Watchdog: "on"}, App: app}
		plain := NewApp(cfg)
		want := plain.Run()
		hooked := NewApp(cfg)
		var heard int
		hooked.Inst.Hook = func(network.Phase) { heard++ }
		if got := hooked.Run(); resultFingerprint(got) != resultFingerprint(want) {
			t.Errorf("the hook changed the application result\nwith:    %+v\nwithout: %+v", got, want)
		}
		if traceText(t, hooked.Inst.Trace) != traceText(t, plain.Inst.Trace) {
			t.Error("the hook changed the application trace")
		}
		if heard == 0 {
			t.Error("the hook heard no phase")
		}
	})
}

// netCycle is the documented phase order of one cycle on a VC network.
var netCycle = []network.Phase{
	network.PhaseBegin, network.PhasePreCycle, network.PhaseConsume, network.PhaseInject,
	network.PhaseRoute, network.PhasePostCycle, network.PhaseShift, network.PhaseProbe,
}

// wantPhases is the sequence a synthetic run of cfg reports from cycle
// from to its end, without the nested ejections.
func wantPhases(cfg SynthConfig, from int64) []network.Phase {
	var want []network.Phase
	if from > 0 {
		want = append(want, network.PhaseRestore)
	}
	step := []network.Phase{network.PhaseDeflect}
	if cfg.Scheme != MinBD {
		step = netCycle
	}
	for c := from; c < int64(cfg.Warmup+cfg.Measure+cfg.Drain); c++ {
		if c > 0 && c%cfg.CheckpointEvery == 0 {
			want = append(want, network.PhaseCheckpoint)
		}
		want = append(want, network.PhaseSource, network.PhaseEnqueue)
		want = append(want, step...)
		want = append(want, network.PhaseTelemetry)
	}
	return want
}

// unnest strips the Eject/EjectEnd pairs from a phase sequence, failing
// on a pair that is unclosed or nested in a phase that delivers nothing,
// and reports how many it stripped.
func unnest(t *testing.T, phases []network.Phase) ([]network.Phase, int64) {
	t.Helper()
	var out []network.Phase
	var pairs int64
	for i := 0; i < len(phases); i++ {
		if phases[i] != network.PhaseEject {
			out = append(out, phases[i])
			continue
		}
		if i+1 == len(phases) || phases[i+1] != network.PhaseEjectEnd {
			t.Fatalf("phase %d: Eject is not closed by EjectEnd", i)
		}
		switch encl := out[len(out)-1]; encl {
		case network.PhasePreCycle, network.PhaseRoute, network.PhasePostCycle, network.PhaseDeflect:
		default:
			t.Fatalf("phase %d: an ejection nested in phase %d", i, encl)
		}
		pairs++
		i++
	}
	return out, pairs
}

// TestHookPhaseOrder: the hook hears every cycle's phases in the
// documented order — a due checkpoint, source, enqueue, the network
// step, telemetry — and one ejection pair per delivered packet, nested
// where it fires. MinBD reports only its step; a resumed run starts
// with its restore. The subtests keep the name of the Shards value
// checkpointBase encodes.
func TestHookPhaseOrder(t *testing.T) {
	for _, scheme := range []Scheme{FastPass, SPIN, MinBD} {
		cfg := hookBase(scheme)
		t.Run(cfg.Scheme.String()+"/shards=1", func(t *testing.T) {
			fresh := observe(t, cfg, nil, true)
			got, ejects := unnest(t, fresh.phases)
			if want := wantPhases(cfg, 0); !slices.Equal(got, want) {
				t.Errorf("phase sequence differs from the documented order (%d vs %d phases)\ngot  %v...\nwant %v...", len(got), len(want), head(got), head(want))
			}
			if ejects != fresh.res.Delivered {
				t.Errorf("%d ejection pairs for %d delivered packets", ejects, fresh.res.Delivered)
			}
			rcfg, err := OpenCheckpoint(fresh.blobs[1])
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			rcfg.CheckpointEvery = cfg.CheckpointEvery
			got, _ = unnest(t, observe(t, rcfg, fresh.blobs[1], true).phases)
			if want := wantPhases(cfg, 900); !slices.Equal(got, want) {
				t.Errorf("resumed phase sequence differs from the documented order\ngot  %v...\nwant %v...", head(got), head(want))
			}
		})
	}
	t.Run("App", func(t *testing.T) {
		app := workload.MustGet("FFT")
		app.WorkQuota = 100
		r := NewApp(AppConfig{Options: Options{Scheme: EscapeVC, W: 4, H: 4, Seed: 3}, App: app})
		var phases []network.Phase
		r.Inst.Hook = func(p network.Phase) { phases = append(phases, p) }
		res := r.Run()
		got, ejects := unnest(t, phases)
		var want []network.Phase
		for range res.ExecTime {
			want = append(append(want, network.PhaseSource), netCycle[:len(netCycle)-1]...)
		}
		if !slices.Equal(got, want) {
			t.Errorf("application phase sequence differs from the documented order\ngot  %v...\nwant %v...", head(got), head(want))
		}
		if ejects == 0 {
			t.Error("no ejection reported")
		}
	})
}

// head is the first two dozen phases of a sequence, for a failure
// message.
func head(p []network.Phase) []network.Phase { return p[:min(len(p), 24)] }
