package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

func quickCfg(s Scheme, rate float64) SynthConfig {
	return SynthConfig{
		Options: Options{
			Scheme: s, W: 4, H: 4, Seed: 1,
			DrainPeriod: 4096, SwapDuty: 512,
		},
		Pattern: traffic.Uniform,
		Rate:    rate,
		Warmup:  1000, Measure: 3000, Drain: 2000,
	}
}

func TestSchemeStringsAndParse(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%v) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScheme("Bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestVNAnnotations(t *testing.T) {
	if FastPass.UsesVNs() || Pitstop.UsesVNs() {
		t.Error("FastPass and Pitstop are VN-free")
	}
	if !EscapeVC.UsesVNs() || !SPIN.UsesVNs() {
		t.Error("VN-based baselines mislabelled")
	}
	if FastPass.DefaultVCs() != 4 || EscapeVC.DefaultVCs() != 2 {
		t.Error("Table II VC defaults wrong")
	}
}

// Every scheme must deliver low-load uniform traffic with sane latency.
func TestAllSchemesLowLoad(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res := RunSynthetic(quickCfg(s, 0.02))
			if res.Samples == 0 {
				t.Fatal("no measured deliveries")
			}
			if res.Saturated {
				t.Fatalf("saturated at 0.02 pkts/node/cycle (lat=%v delivered=%v)",
					res.AvgLatency, res.DeliveredFrac)
			}
			if res.AvgLatency < 4 || res.AvgLatency > 60 {
				t.Errorf("low-load latency %v outside sane band", res.AvgLatency)
			}
			if res.DeliveredFrac < 0.98 {
				t.Errorf("delivered fraction %v at low load", res.DeliveredFrac)
			}
		})
	}
}

func TestFastPassCountersFlow(t *testing.T) {
	res := RunSynthetic(quickCfg(FastPass, 0.08))
	if res.Promoted == 0 {
		t.Error("no promotions at moderate load")
	}
	if res.FastFrac <= 0 {
		t.Error("no FastPass packets in the breakdown")
	}
	r, f, d := res.RegularFrac, res.FastFrac, res.DroppedFrac
	if math.Abs(r+f+d-1) > 1e-9 {
		t.Errorf("breakdown fractions sum to %v", r+f+d)
	}
	if !math.IsNaN(res.FastSplitFast) && res.FastSplitFast <= 0 {
		t.Error("FastPass split has no bufferless time")
	}
}

func TestSweepStopsAfterSaturation(t *testing.T) {
	rates := []float64{0.02, 0.3, 0.5, 0.7, 0.9}
	// TFC on transpose saturates very early; the sweep should stop
	// simulating and carry the saturated marker forward.
	base := quickCfg(TFC, 0)
	base.Pattern = traffic.Transpose
	runs := 0
	base.Instrument = func(*SynthConfig) { runs++ }
	out := SweepLatency(base, rates)
	if len(out) != len(rates) {
		t.Fatalf("sweep returned %d points", len(out))
	}
	if !out[len(out)-1].Saturated {
		t.Error("final point should be saturated")
	}
	for i, r := range rates {
		if out[i].Rate != r {
			t.Errorf("point %d has rate %v, want %v", i, out[i].Rate, r)
		}
	}
	// Nothing after the first two consecutive saturated points runs.
	n := len(rates)
	for i := 1; i < len(out); i++ {
		if out[i-1].Saturated && out[i].Saturated {
			n = i + 1
			break
		}
	}
	if n == len(rates) || runs != n {
		t.Errorf("%d runs for cutoff %d of %d rates", runs, n, len(rates))
	}
}

func TestSaturationBisection(t *testing.T) {
	base := quickCfg(EscapeVC, 0)
	base.Warmup, base.Measure, base.Drain = 500, 1500, 1500
	rate, thr := SaturationThroughput(base, 0.01, 0.9, 5)
	if rate <= 0.01 || rate >= 0.9 {
		t.Errorf("saturation rate %v should be interior", rate)
	}
	if thr <= 0 {
		t.Errorf("throughput %v at saturation", thr)
	}
	// Throughput at the found rate tracks the offered rate.
	if thr < rate*0.5 {
		t.Errorf("accepted %v far below offered %v", thr, rate)
	}
	// A saturated low bracket ends the bisection after one probe.
	lo := sweepBase(TFC)
	lo.SatLatency = 1 // every point counts as saturated
	probes := 0
	lo.Instrument = func(*SynthConfig) { probes++ }
	if rate, thr := SaturationThroughput(lo, 0.05, 0.5, 3); rate != 0.05 || thr != 0 || probes != 1 {
		t.Errorf("saturated bracket: (%v, %v) after %d probes, want (0.05, 0) after 1", rate, thr, probes)
	}
}

func TestRunAppAcrossSchemes(t *testing.T) {
	app := workload.MustGet("FFT")
	app.WorkQuota = 300
	for _, s := range []Scheme{FastPass, EscapeVC, Pitstop} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			res := RunApp(AppConfig{
				Options:   Options{Scheme: s, W: 4, H: 4, Seed: 3, DrainPeriod: 4096},
				App:       app,
				MaxCycles: 300000,
			})
			if res.Timeout {
				t.Fatalf("work quota not completed: %d of %d", res.Completed, app.WorkQuota)
			}
			if res.Samples == 0 || math.IsNaN(res.AvgLatency) {
				t.Fatal("no latency samples")
			}
			if res.P99Latency < res.AvgLatency {
				t.Error("p99 below mean")
			}
		})
	}
}

func TestRunAppRejectsMinBD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunApp(AppConfig{Options: Options{Scheme: MinBD, W: 4, H: 4}, App: workload.MustGet("FFT")})
}

// TestAppConfigValidate: one gate for application runs — Options'
// rules, a protocol-capable scheme, a positive work quota and a
// non-negative cycle bound — and RunApp panics with exactly its error.
func TestAppConfigValidate(t *testing.T) {
	fft := workload.MustGet("FFT")
	noWork := fft
	noWork.WorkQuota = 0
	for _, tc := range []struct {
		name    string
		cfg     AppConfig
		wantErr string
	}{
		{"defaults", AppConfig{App: fft}, ""},
		{"explicit bound", AppConfig{Options: Options{Scheme: EscapeVC, W: 4, H: 4}, App: fft, MaxCycles: 1000}, ""},
		{"MinBD", AppConfig{Options: Options{Scheme: MinBD}, App: fft}, "cannot run protocol traffic"},
		{"no work", AppConfig{App: noWork}, "positive work quota"},
		{"negative bound", AppConfig{App: fft, MaxCycles: -1}, "non-negative cycle bound"},
		{"bad options", AppConfig{Options: Options{VCs: -2}, App: fft}, "VCs"},
		{"bad fault plan", AppConfig{Options: Options{Faults: "garbage"}, App: fft}, "faults"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.wantErr)
			}
			defer func() {
				if got, ok := recover().(error); !ok || got.Error() != err.Error() {
					t.Errorf("RunApp panicked with %v, want Validate's error %v", got, err)
				}
			}()
			RunApp(tc.cfg)
		})
	}
}

func TestDeterministicResults(t *testing.T) {
	a := RunSynthetic(quickCfg(FastPass, 0.05))
	b := RunSynthetic(quickCfg(FastPass, 0.05))
	if a.AvgLatency != b.AvgLatency || a.Samples != b.Samples || a.Promoted != b.Promoted {
		t.Fatalf("non-deterministic synthetic results: %+v vs %+v", a, b)
	}
}

// TestMinBDReleasesToPool: UsePool puts MinBD on the arena under the
// one ownership rule — the ejection that completes a packet releases it,
// once, after OnEject. A packet touched after that moment must trip the
// arena's poison check at the next Get; a self-addressed packet (which
// completes inside the injection pass) must come back clean.
func TestMinBDReleasesToPool(t *testing.T) {
	inst := Build(Options{Scheme: MinBD, W: 4, H: 4, Seed: 1})
	pool := inst.UsePool()
	if pool == nil {
		t.Fatal("UsePool returned no pool for MinBD")
	}
	var last *message.Packet
	inst.SetOnEject(func(p *message.Packet) {
		if p.EjectTime < 0 || p.Len == 0 {
			t.Errorf("OnEject saw an already released packet: %+v", *p)
		}
		last = p
	})
	deliver := func(id uint64, src, dst, flits int) {
		t.Helper()
		inst.Enqueue(pool.Get(id, src, dst, message.Request, flits, inst.Cycle()))
		last = nil
		for c := 0; c < 200 && last == nil; c++ {
			inst.Step()
		}
		if last == nil {
			t.Fatalf("packet %d never ejected", id)
		}
	}
	deliver(1, 0, 15, 5)
	deliver(2, 3, 3, 1) // self-addressed, completes while injecting
	deliver(3, 3, 3, 5)
	// Each Get above recycled the packet released just before it; a
	// dirtied release would have panicked there.
	if pool.Puts != 3 || pool.News != 1 || pool.FreeLen() != 1 {
		t.Fatalf("Puts/News/free = %d/%d/%d after 3 deliveries, want 3/1/1", pool.Puts, pool.News, pool.FreeLen())
	}

	deliver(7, 0, 15, 1)
	last.Hops++ // use after ejection
	defer func() {
		if recover() == nil {
			t.Error("a MinBD packet mutated after ejection did not panic at the next Get")
		}
	}()
	pool.Get(8, 0, 1, message.Request, 1, inst.Cycle())
}

// TestInjectedPacketsBelongToTheirNIC proves what network.New's single
// shared Inject closure rests on: every packet a NIC offers its router —
// everything handed to EnqueueSource or EnqueueSourceFront by the
// synthetic generator, the protocol engine (requests, forwards,
// responses, write-backs) and FastPass's MSHR re-issue of dropped
// packets — has that NIC's node as its Src, so routing the injection by
// pkt.Src reaches the NIC's own router.
func TestInjectedPacketsBelongToTheirNIC(t *testing.T) {
	watch := func(t *testing.T, inst *Instance) *int {
		offered := new(int)
		for _, nc := range inst.Net.NICs {
			nc, inject := nc, nc.Inject
			nc.Inject = func(p *message.Packet) bool {
				*offered++
				if p.Src != nc.Node {
					t.Fatalf("NIC %d offered its router %s", nc.Node, p)
				}
				return inject(p)
			}
		}
		return offered
	}
	for _, scheme := range Schemes() {
		if !scheme.SupportsProtocol() {
			continue // MinBD has no NICs
		}
		t.Run(scheme.String(), func(t *testing.T) {
			// Synthetic, far past saturation, with one consumer wedged for
			// a while: FastPass packets bound there are rejected, and the
			// dynamic bubble drops and re-issues requests to park them.
			inst := Build(Options{Scheme: scheme, W: 4, H: 4, Seed: 5})
			offered := watch(t, inst)
			inst.Net.NICs[5].Stall = func(_ int, cycle int64) bool { return cycle < 2000 }
			gen := &traffic.Generator{Pattern: traffic.Uniform, Rate: 0.4, W: 4, H: 4, Pool: inst.UsePool()}
			rng := rand.New(rand.NewSource(5))
			for c := 0; c < 3000; c++ {
				for _, pkt := range gen.Tick(inst.Cycle(), rng) {
					inst.Enqueue(pkt)
				}
				inst.Step()
			}
			if *offered < 1000 {
				t.Errorf("only %d injections offered", *offered)
			}
			if inst.FP != nil && inst.FP.Counters.Regens == 0 {
				t.Error("FastPass never re-issued a dropped packet: the MSHR path went unobserved")
			}
			// Coherence traffic.
			inst = Build(Options{Scheme: scheme, W: 4, H: 4, Seed: 5})
			offered = watch(t, inst)
			eng := protocol.New(inst.Net, workload.MustGet("Streamcluster").Profile, 5)
			for c := 0; c < 3000; c++ {
				eng.Tick(inst.Cycle())
				inst.Step()
			}
			if *offered < 1000 || eng.Completed == 0 {
				t.Errorf("protocol run too quiet: %d injections offered, %d transactions complete", *offered, eng.Completed)
			}
		})
	}
}

// TestValidateRejectsWhatBuildPanicsOn: each input that used to reach a
// panic inside Build or the first cycle (or, for the rates and the
// negative window, run to NaN latencies; for the fault scales, run the
// plan at full rate; for healing, run a FastPass option on another
// scheme) is an error from Validate, and every scheme's defaults and
// largest legal VC count pass — and build.
func TestValidateRejectsWhatBuildPanicsOn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     SynthConfig
		wantErr string
	}{
		{"negative VCs", SynthConfig{Options: Options{VCs: -2}}, "1 to 64 VCs"},
		{"one-node mesh", SynthConfig{Options: Options{W: 1}}, "2x2"},
		{"negative mesh", SynthConfig{Options: Options{W: -1}}, "2x2"},
		{"one-row mesh", SynthConfig{Options: Options{W: 4, H: 1}}, "2x2"},
		{"mesh side past the bound", SynthConfig{Options: Options{W: 4, H: topology.MaxSide + 1}}, "largest side"},
		{"EscapeVC without an adaptive VC", SynthConfig{Options: Options{Scheme: EscapeVC, VCs: 1}}, "2 to 10 VCs"},
		{"one-VN scheme past the mask", SynthConfig{Options: Options{Scheme: Pitstop, VCs: 65}}, "1 to 64 VCs"},
		{"six-VN scheme past the mask", SynthConfig{Options: Options{Scheme: SPIN, VCs: 11}}, "1 to 10 VCs"},
		{"negative ejection capacity", SynthConfig{Options: Options{EjectCap: -1}}, "ejection capacity"},
		{"negative fault scale", SynthConfig{Options: Options{Faults: "corrupt:rate=1e-3", FaultScale: -1}}, "fault scale"},
		{"NaN fault scale", SynthConfig{Options: Options{FaultScale: math.NaN()}}, "fault scale"},
		{"rate above one", SynthConfig{Rate: 2}, "[0, 1]"},
		{"negative rate", SynthConfig{Rate: -0.5}, "[0, 1]"},
		{"NaN rate", SynthConfig{Rate: math.NaN()}, "[0, 1]"},
		{"negative warmup", SynthConfig{Warmup: -5}, "negative window"},
		{"negative checkpoint period", SynthConfig{CheckpointEvery: -5}, "negative period"},
		{"negative telemetry window", SynthConfig{Telemetry: telemetry.Options{Window: -1}}, "negative period"},
		{"Shuffle on 36 nodes", SynthConfig{Options: Options{W: 6}, Pattern: traffic.Shuffle}, "power-of-two"},
		{"BitComplement on 12 nodes", SynthConfig{Options: Options{W: 4, H: 3}, Pattern: traffic.BitComplement}, "power-of-two"},
		{"Transpose on 4x8", SynthConfig{Options: Options{W: 4, H: 8}, Pattern: traffic.Transpose}, "square"},
		{"scheme past the last", SynthConfig{Options: Options{Scheme: numSchemes}}, "unknown scheme"},
		{"unparseable fault plan", SynthConfig{Options: Options{Faults: "00"}}, "unknown fault kind"},
		{"link outside the mesh", SynthConfig{Options: Options{W: 4, H: 4, Faults: "linkfail:link=48,at=10,perm"}}, "link 48 outside topology (48 links)"},
		{"port outside the router", SynthConfig{Options: Options{W: 4, H: 4, Faults: "portstall:node=0,port=5,at=10"}}, "port (0,5) outside topology"},
		{"node outside the mesh", SynthConfig{Options: Options{W: 4, H: 4, Faults: "stallconsumer:node=16,at=10"}}, "node 16 outside topology (16 nodes)"},
		{"unparseable watchdog", SynthConfig{Options: Options{Watchdog: "stride"}}, "not key=value"},
		{"FastPass slot under a round trip", SynthConfig{Options: Options{Scheme: FastPass, W: 24, H: 24, FastPassK: 24}}, "shorter than a worst-case round trip"},
		{"healing on EscapeVC", SynthConfig{Options: Options{Scheme: EscapeVC, FPHealing: true}}, "FastPass configuration"},
	} {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}
	if err := (SynthConfig{Pattern: traffic.Shuffle}).Validate(); err != nil {
		t.Errorf("Shuffle on the default 8x8 mesh: %v", err)
	}
	// Validate counts the mesh's links, nodes and ports without building
	// it: the last of each is accepted, and the plan builds.
	for _, wh := range [][2]int{{2, 2}, {3, 2}, {4, 5}} {
		mesh := topology.NewMesh(wh[0], wh[1])
		last := fmt.Sprintf("linkfail:link=%d,at=10,perm;portstall:node=%d,port=%d,at=10;stallconsumer:node=%d,at=10",
			len(mesh.Links())-1, mesh.NumNodes()-1, mesh.NumPorts()-1, mesh.NumNodes()-1)
		o := Options{W: wh[0], H: wh[1], Faults: last}
		if err := o.Validate(); err != nil {
			t.Errorf("%dx%d, last victims: %v", wh[0], wh[1], err)
		}
		Build(o)
		o.Faults = fmt.Sprintf("linkfail:link=%d,at=10,perm", len(mesh.Links()))
		if err := o.Validate(); err == nil {
			t.Errorf("%dx%d: link %d accepted", wh[0], wh[1], len(mesh.Links()))
		}
	}
	for _, s := range Schemes() {
		most := 10
		if s == FastPass || s == Pitstop {
			most = 64
		}
		for _, vcs := range []int{0, most} {
			o := Options{Scheme: s, W: 2, H: 3, VCs: vcs}
			if err := (SynthConfig{Options: o, Rate: 1}).Validate(); err != nil {
				t.Errorf("%v with %d VCs: %v", s, vcs, err)
			}
			Build(o)
		}
	}
}
