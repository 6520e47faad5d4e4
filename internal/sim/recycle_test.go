package sim

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/parallel"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// drainSpares empties every cross-run store (DESIGN.md §9) through the
// entry points a run uses, so the next run starts on freshly made
// memory: a 2×2 one-VC build under a watchdog and a fault plan fits
// every kept mesh, router, channel, NIC, watchdog and injector array,
// its UsePool and protocol.New each draw one spare pool, the engine one
// set of tables and, with the injector, RNG sources, a backed-up
// injection queue one overflow chunk, a 2×2 MinBD build its arrays and
// reassembly table, stats.New a histogram, and no store keeps more than
// 8 arrays or maps.
func drainSpares() {
	profile := workload.MustGet("Canneal").Profile
	for range 32 {
		inst := Build(Options{Scheme: FastPass, W: 2, H: 2, VCs: 1, Watchdog: "on", Faults: "corrupt:rate=1e-3"})
		inst.UsePool()
		protocol.New(inst.Net, profile, 1)
		for id := range uint64(5) { // the fifth outgrows the 4-entry window
			inst.Net.Routers[0].InjectPacket(message.NewPacket(id+1, 0, 1, message.Request, 1, 0))
		}
		Build(Options{Scheme: MinBD, W: 2, H: 2})
		stats.New(4, 0, 1)
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
	runApp := func(o Options) func() string {
		return func() string { return resultFingerprint(RunApp(AppConfig{Options: o, App: app})) }
	}
	healed := healingBase(true)
	healed.Watchdog = "on"
	resumeFrom, _, _ := lastCheckpoint(checkpointBase(FastPass), 700)
	deep := workload.MustGet("Streamcluster") // its injection queues outgrow their windows
	deep.WorkQuota = 600
	return []func() string{
		synth(mesh(FastPass, 8, 0.30)), // saturated: the pool grows with the backlog
		synth(mesh(EscapeVC, 4, 0.10)),
		synth(mesh(MinBD, 8, 0.10)),
		runApp(Options{Scheme: DRAIN, W: 4, H: 4, Seed: 7, DrainPeriod: 2048}),
		synth(healed), // a permanent link failure healed around, watchdog on
		runApp(Options{Scheme: EscapeVC, W: 8, H: 8, Seed: 7}), // six VNs: 12 VCs a port, larger tables
		func() string {
			cfg, err := OpenCheckpoint(resumeFrom)
			if err != nil {
				return err.Error()
			}
			res, err := ResumeSynthetic(cfg, resumeFrom)
			return fmt.Sprint(resultFingerprint(res), err)
		},
		synth(mesh(FastPass, 16, 0.02)),
		synth(campaignCell()), // faults and the watchdog at once
		func() string {
			return resultFingerprint(RunApp(AppConfig{Options: Options{Scheme: FastPass, W: 8, H: 8, Seed: 7}, App: deep}))
		},
	}
}

// campaignCell is one cell of a reliability campaign: an 8×8 FastPass
// point under the watchdog and a rate-driven plan of link failures,
// flit corruption and credit loss at four times its written rates.
func campaignCell() SynthConfig {
	return SynthConfig{
		Options: Options{Scheme: FastPass, W: 8, H: 8, Seed: 7, Watchdog: "on",
			Faults: "linkfail:rate=2e-4,dur=64;corrupt:rate=1e-3;creditloss:rate=1e-5", FaultScale: 4},
		Pattern: traffic.Uniform, Rate: 0.05,
		Warmup: 500, Measure: 2000, Drain: 1000,
	}
}

// TestRecycledRunsMatchFresh: a run drawing the arrays and packet
// chunks an earlier run released must be the run fresh memory gives.
// The ten runs start from drained stores, then run again in reverse and
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
	s.release()
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

// TestRecycledRunAllocBudget pins the cross-run half of DESIGN.md §9: a
// run hands everything it sized to the mesh, its packet chunks and its
// RNG streams to the next run in the process, so running the same point
// again, from drained stores, allocates only its harness objects. Each
// case bounds a warm run's bytes by an absolute ceiling, so a build
// that shrinks the first run leaves the bound as it was. The bytes are
// process-wide TotalAlloc, which an allocation elsewhere in the process
// can inflate by kilobytes in one read, so three warm runs follow the
// first and the least of them is held to the ceiling. For a saturated
// 8×8 RunSynthetic the ceiling is 52,000 bytes (4,656 measured): the
// source backlog's chunks are 4.2 MB of the first run's 5.2 MB and the
// router slab 210 KB, so losing either reuse fails. For an 8×8 six-VN
// RunApp it is 4,200 (3,600 measured): without the protocol tables'
// reuse it is 45 KB, and the router slab, channels, NICs and mesh are
// more. A campaign cell — faults and the watchdog on an 8×8 FastPass
// mesh — is under 5,900 (5,280 measured; without the watchdog's reuse
// 26 KB, without the FastPass controller's flight slots and path
// buffers 7.1 KB), and an 8×8 MinBD point under 2,600 (2,192; without
// the reuse of its arrays and reassembly table 30 KB).
func TestRecycledRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the guard without -race")
	}
	app := workload.MustGet("Canneal")
	app.WorkQuota = 250
	for _, tc := range []struct {
		name    string
		run     func() bool // reports the run as the case wants it
		ceiling uint64      // the second run's bytes
	}{
		{"saturated 8×8 point", func() bool {
			return RunSynthetic(SynthConfig{
				Options: Options{Scheme: FastPass, W: 8, H: 8, Seed: 1},
				Pattern: traffic.Uniform, Rate: 0.30,
				Warmup: 500, Measure: 1500, Drain: 1000,
			}).Saturated
		}, 52_000},
		{"8×8 EscapeVC app run", func() bool {
			return !RunApp(AppConfig{Options: Options{Scheme: EscapeVC, W: 8, H: 8, Seed: 1}, App: app}).Timeout
		}, 4_200},
		{"campaign cell", func() bool {
			res := RunSynthetic(campaignCell())
			return res.Faults.LinkFails > 0 && res.Faults.FlitsCorrupted > 0 && !res.Aborted
		}, 5_900},
		{"8×8 MinBD point", func() bool {
			return !RunSynthetic(SynthConfig{
				Options: Options{Scheme: MinBD, W: 8, H: 8, Seed: 1},
				Pattern: traffic.Uniform, Rate: 0.05,
				Warmup: 500, Measure: 1500, Drain: 1000,
			}).Saturated
		}, 2_600},
	} {
		drainSpares()
		var bytes [4]uint64 // a first run on drained stores, then three warm ones
		for i := range bytes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if !tc.run() {
				t.Fatalf("%s: run %d did not end as the case needs", tc.name, i+1)
			}
			runtime.ReadMemStats(&after)
			bytes[i] = after.TotalAlloc - before.TotalAlloc
		}
		warm := slices.Min(bytes[1:])
		t.Logf("%s: first run %d bytes, warm runs %v, least %d (ceiling %d)", tc.name, bytes[0], bytes[1:], warm, tc.ceiling)
		if warm > tc.ceiling {
			t.Errorf("%s: every warm run allocates over the ceiling of %d bytes: %v", tc.name, tc.ceiling, bytes[1:])
		}
	}
}
