package sim

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// drainSpares empties the router-slab and packet-pool stores, so the
// next run starts on freshly made memory: a 2×2 one-VC build fits every
// spare slab, each UsePool draws one spare pool, and neither store
// holds more than a few.
func drainSpares() {
	for range 32 {
		Build(Options{Scheme: FastPass, W: 2, H: 2, VCs: 1}).UsePool()
	}
}

// recycleRuns are the runs TestRecycledRunsMatchFresh chains in one
// process, each returning its fingerprint: the result and, for the
// synthetic runs, the last checkpoint blob, which holds every counter
// and buffer of the network and the pool.
func recycleRuns() []func() string {
	synth := func(cfg SynthConfig) func() string {
		return func() string {
			blob, _, res := lastCheckpoint(cfg, 400)
			return fmt.Sprintf("%s blob %x", resultFingerprint(res), sha256.Sum256(blob))
		}
	}
	mesh := func(s Scheme, size int, rate float64) SynthConfig {
		return SynthConfig{
			Options: Options{Scheme: s, W: size, H: size, Seed: 7, Watchdog: "on"},
			Pattern: traffic.Uniform, Rate: rate,
			Warmup: 300, Measure: 700, Drain: 400,
		}
	}
	app := workload.MustGet("Canneal")
	app.WorkQuota = 250
	resumeFrom, _, _ := lastCheckpoint(checkpointBase(FastPass, 1), 700)
	return []func() string{
		synth(mesh(FastPass, 8, 0.30)), // saturated: the pool grows with the backlog
		synth(mesh(EscapeVC, 4, 0.10)),
		synth(mesh(MinBD, 8, 0.10)),
		func() string {
			return resultFingerprint(RunApp(AppConfig{Options: Options{Scheme: DRAIN, W: 4, H: 4, Seed: 7, DrainPeriod: 2048}, App: app}))
		},
		func() string {
			cfg, err := OpenCheckpoint(resumeFrom)
			if err != nil {
				return err.Error()
			}
			res, err := ResumeSynthetic(cfg, resumeFrom)
			return fmt.Sprint(resultFingerprint(res), err)
		},
		synth(mesh(FastPass, 16, 0.02)),
	}
}

// TestRecycledRunsMatchFresh: a run drawing the router slab and packet
// chunks an earlier run released must be the run fresh memory gives.
// The six runs start from drained stores, then run again in reverse and
// in parallel — every order hands each run other leftovers, a smaller
// build a prefix of a larger slab — and every fingerprint must equal its
// first run's. A released instance must refuse to step.
func TestRecycledRunsMatchFresh(t *testing.T) {
	runs := recycleRuns()
	drainSpares()
	first := make([]string, len(runs))
	for i, run := range runs {
		first[i] = run()
	}
	for k := len(runs) - 1; k >= 0; k-- {
		if got := runs[k](); got != first[k] {
			t.Errorf("run %d in reverse differs from its first run\n got %s\nwant %s", k, got, first[k])
		}
	}
	for k, got := range parallel.Map(2, runs, func(run func() string) string { return run() }) {
		if got != first[k] {
			t.Errorf("run %d at -j 2 differs from its first run\n got %s\nwant %s", k, got, first[k])
		}
	}

	s := NewSynthetic(SynthConfig{Options: Options{Scheme: FastPass, W: 4, H: 4, Seed: 7}, Rate: 0.05, Warmup: 10, Measure: 10, Drain: 10})
	s.Run()
	s.Inst.release(s.pool)
	for name, use := range map[string]func(){"Step": s.Inst.Step, "Run": func() { s.Inst.Run(s, s.Inst.Cycle()+1) }} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "released") {
					t.Errorf("%s on a released instance: recovered %q, want a panic naming the release", name, msg)
				}
			}()
			use()
		}()
	}
}
