package main

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
	apps "repro/internal/workload"
)

// tinySynth is a fast synthetic point on a 4x4 mesh.
func tinySynth(scheme sim.Scheme) sim.SynthConfig {
	return sim.SynthConfig{
		Options: sim.Options{Scheme: scheme, W: 4, H: 4, Seed: 7},
		Pattern: traffic.Uniform, Rate: 0.08,
		Warmup: 100, Measure: 300, Drain: 300,
	}
}

// The mirrored traced loop must be the loop sim.RunSynthetic runs: same
// result, field for field, for a lane scheme, a pure-router scheme, a
// recovery controller and the deflection network.
func TestMirrorSyntheticMatchesRunSynthetic(t *testing.T) {
	for _, scheme := range []sim.Scheme{sim.FastPass, sim.EscapeVC, sim.SPIN, sim.MinBD} {
		cfg := tinySynth(scheme)
		want := sim.RunSynthetic(cfg)
		tr := newTracer("test")
		got := tr.synthetic(cfg)
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("%v: mirrored result differs from sim.RunSynthetic\n got %+v\nwant %+v", scheme, got, want)
		}
		if want.Delivered == 0 {
			t.Errorf("%v: test point delivered nothing", scheme)
		}
		step, n := tr.sum(spStep)
		if scheme == sim.MinBD {
			step, n = tr.sum(spMinBD)
		}
		if n != 700 || step <= 0 {
			t.Errorf("%v: traced %d step intervals (%d ns), want 700", scheme, n, step)
		}
	}
}

// With a watchdog attached the Probe is chained, not replaced: the
// wrapped run still trips (or not) exactly as the unwrapped one.
func TestMirrorKeepsWatchdogAndFaults(t *testing.T) {
	cfg := tinySynth(sim.FastPass)
	cfg.Faults = campaignPlan
	cfg.FaultScale = 4
	cfg.Watchdog = "on"
	want := sim.RunSynthetic(cfg)
	tr := newTracer("test")
	got := tr.synthetic(cfg)
	if fingerprint(got) != fingerprint(want) {
		t.Errorf("mirrored fault run differs\n got %+v\nwant %+v", got, want)
	}
	if _, n := tr.sum(spProbe); n == 0 {
		t.Error("no invariant.probe intervals recorded with the watchdog on")
	}
}

func TestMirrorAppMatchesRunApp(t *testing.T) {
	app := apps.MustGet("Radix")
	app.WorkQuota = 150
	for _, o := range []sim.Options{
		{Scheme: sim.FastPass, W: 4, H: 4, VCs: 2, Seed: 7, DrainPeriod: 512},
		{Scheme: sim.EscapeVC, W: 4, H: 4, VCs: 2, Seed: 7, DrainPeriod: 512},
		{Scheme: sim.DRAIN, W: 4, H: 4, VCs: 2, Seed: 7, DrainPeriod: 512},
	} {
		cfg := sim.AppConfig{Options: o, App: app}
		want := sim.RunApp(cfg)
		tr := newTracer("test")
		got := tr.app(cfg)
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("%v: mirrored result differs from sim.RunApp\n got %+v\nwant %+v", o.Scheme, got, want)
		}
		if want.Timeout {
			t.Errorf("%v: test run timed out", o.Scheme)
		}
		if _, n := tr.sum(spProtocol); n != want.ExecTime {
			t.Errorf("%v: %d protocol.tick intervals for %d cycles", o.Scheme, n, want.ExecTime)
		}
	}
}

// The Controller wrapper and the chained Probe must not perturb a run
// across a checkpoint: sealed with the untraced blob's meta, the
// mirror's blob is byte-identical, the telemetry streams hash alike,
// and both passes resume to the uninterrupted result.
func TestMirrorCheckpointWorkload(t *testing.T) {
	w := checkpointTelemetry()
	p := params{seed: 3, scale: 0.02}
	ref := w.run(p, public{})
	for _, o := range ref.ops {
		if o.fail != "" {
			t.Fatalf("untraced %s: %s", o.name, o.fail)
		}
	}
	if ref.ckpt.blobs < 10 || ref.ckpt.blob == nil {
		t.Fatalf("untraced pass took %d checkpoints, blob %v", ref.ckpt.blobs, ref.ckpt.blob != nil)
	}
	tr := newTracer(w.name)
	tr.meta = blobMeta(ref.ckpt.blob)
	got := w.run(p, tr)
	sameResults(ref.ops, got.ops, "between passes")
	for _, o := range got.ops {
		if o.fail != "" {
			t.Errorf("traced %s: %s", o.name, o.fail)
		}
	}
	if !bytes.Equal(ref.ckpt.blob, got.ckpt.blob) {
		t.Error("mirrored checkpoint blob differs from sim's")
	}
	if ref.ckpt.streamHash != got.ckpt.streamHash || ref.ckpt.blobs != got.ckpt.blobs || ref.ckpt.blobBytes != got.ckpt.blobBytes {
		t.Errorf("telemetry stream / checkpoint counts differ: %+v vs %+v", ref.ckpt, got.ckpt)
	}
	if n := tr.c.blobs; n != ref.ckpt.blobs {
		t.Errorf("tracer counted %d blobs, want %d", n, ref.ckpt.blobs)
	}
	if busy, n := tr.sum(spRestore); n != 1 || busy <= 0 {
		t.Errorf("snapshot.restore: %d intervals, %d ns", n, busy)
	}
	if _, n := tr.sum(spTelClose); n == 0 {
		t.Error("no telemetry.close intervals")
	}
}

// The serial mirrored campaign must produce campaign.Run's journal byte
// for byte (scoreCampaign fingerprints each journal line): that pins
// cellConfig and the mirrored Record against campaign's unexported cell.
func TestMirrorCampaignMatchesRun(t *testing.T) {
	w := campaignGrid()
	p := params{seed: 2, scale: 0.01}
	ref := w.run(p, public{})
	tr := newTracer(w.name)
	got := w.run(p, tr)
	sameResults(ref.ops, got.ops, "between campaign.Run and the mirror")
	if len(ref.ops) != 54 || len(got.ops) != 54 || len(tr.cells) != 54 {
		t.Fatalf("cells: %d untraced, %d traced, %d timed; want 54", len(ref.ops), len(got.ops), len(tr.cells))
	}
	for _, ops := range [][]opResult{ref.ops, got.ops} {
		for _, o := range ops {
			if o.fail != "" {
				t.Errorf("%s: %s", o.name, o.fail)
			}
		}
	}
	if _, n := tr.sum(spProbe); n == 0 {
		t.Error("no invariant.probe intervals: the watchdog's Probe was not chained")
	}
	if len(ref.unitNs) != 1 || ref.unitNs[0] <= 0 {
		t.Errorf("campaign pass timed units %v, want the one campaign.Run", ref.unitNs)
	}
}

// A whole traced and a whole untraced run of a cheap workload: every
// metric BENCHMARK.json promises is present under its name.
func TestRunsEmitEveryMetric(t *testing.T) {
	w := lowload16()
	p := params{seed: 5, scale: 0.002}
	line := measureEndToEnd(w, p, 0, smokeMinReps)
	if !line.Correct || line.Attempted != 6 || !line.Smoke {
		t.Errorf("end-to-end run: correct=%v attempted=%d smoke=%v failures=%v", line.Correct, line.Attempted, line.Smoke, line.Failures)
	}
	for _, m := range endToEnd {
		got, ok := line.Metrics[m.name]
		if !ok || got.Value <= 0 || got.Unit != m.unit {
			t.Errorf("end-to-end metric %s = %+v (present %v)", m.name, got, ok)
		}
	}
	traced, tf := measureTraced(w, p)
	if !traced.Correct || traced.Attempted != 12 {
		t.Errorf("traced run: correct=%v attempted=%d failures=%v", traced.Correct, traced.Attempted, traced.Failures)
	}
	if traced.SimFingerprint != line.SimFingerprint {
		t.Errorf("sim_fingerprint differs between runs of one seed: %s vs %s", traced.SimFingerprint, line.SimFingerprint)
	}
	for _, m := range layerMetrics() {
		if _, ok := traced.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	for _, name := range []string{"network.step_ns_per_cycle", "router_nic.ns_per_cycle", "fastpass.precycle_ns_per_cycle", "router.step_ns_occ_full", "nic.inject_ns_per_pkt", "parallel.map_ns_per_task"} {
		if traced.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, traced.Metrics[name].Value)
		}
	}
	// Phase spans parent to network.step, which parents to an op span.
	byID := map[int]*span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.Name == spRouterNIC {
			if parent := byID[s.Parent]; parent == nil || parent.Name != spStep || byID[parent.Parent].Name != spOp {
				t.Errorf("router_nic span %d is not under network.step under an op", s.ID)
			}
		}
	}
}
