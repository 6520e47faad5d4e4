package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	apps "repro/internal/workload"
)

// benchScale is the one common factor applied to every workload's
// nominal cycle counts (the sizes in README.md's workload table) so
// that the driver's 4 + 22×6 runs fit its total-time cap: at 0.4 a
// repetition takes 2–5 s on a 2-core box and three or more fit in a run.
const benchScale = 0.4

// smokeScale is the -smoke size: 1/20 of the nominal cycles, every
// correctness check on, numbers not comparable.
const smokeScale = 0.05

// params are a run's inputs: the seed every Options.Seed (and the
// campaign seed list) derives from, and the cycle scale.
type params struct {
	seed  int64
	scale float64
}

// cycles scales a nominal cycle count, keeping it positive.
func (p params) cycles(nominal int) int {
	c := int(math.Round(float64(nominal) * p.scale))
	if c < 1 {
		c = 1
	}
	return c
}

// drainFloor keeps a scaled-down drain window long enough for the last
// measured packets to leave the network, so the delivery check stays
// meaningful at -smoke size. No full-size window is below it.
const drainFloor = 400

// windows scales the warmup/measure/drain windows of a synthetic point.
func (p params) windows(cfg *sim.SynthConfig, warmup, measure, drain int) {
	cfg.Warmup, cfg.Measure, cfg.Drain = p.cycles(warmup), p.cycles(measure), p.cycles(drain)
	if cfg.Drain < drainFloor {
		cfg.Drain = min(drain, drainFloor)
	}
}

// opResult is the outcome of one operation (one simulation run).
type opResult struct {
	name      string
	fp        uint64 // FNV-64 over every field of the result struct
	cycles    int64  // simulated cycles the run covered
	delivered int64  // packets ejected
	fail      string // empty when every correctness check passed
	wallNs    int64  // host time of the operation, as guard measured it
	// Simulated statistics the per-layer stats.* metrics report.
	samples int
	avgLat  float64
	p99Lat  float64
}

// pass is one execution of a workload's operations.
type pass struct {
	ops []opResult
	// unitNs, when set, replaces the per-operation host times as the
	// pass's timed units (campaign_grid: its cells run in parallel, so
	// the one timed unit is the whole campaign.Run).
	unitNs []int64
	ckpt   checkpointRun // checkpoint_telemetry only
}

// units returns the host times of the pass's timed units. wall_s is
// the sum over units of each unit's median across repetitions, which a
// burst of host noise in one repetition cannot move.
func (ps pass) units() []int64 {
	if ps.unitNs != nil {
		return ps.unitNs
	}
	out := make([]int64, len(ps.ops))
	for i, o := range ps.ops {
		out[i] = o.wallNs
	}
	return out
}

// runner executes operations. The untraced runner calls the public
// entry points users hit; the tracer (trace.go, mirror.go) re-implements
// the same loops from public pieces with spans recorded around each
// layer call. A workload is written once against this interface so both
// passes run exactly the same operations.
type runner interface {
	synthetic(cfg sim.SynthConfig) sim.SynthResult
	app(cfg sim.AppConfig) sim.AppResult
	// resume continues a checkpoint blob to completion.
	resume(cfg sim.SynthConfig, blob []byte) (sim.SynthResult, error)
	// campaign runs the grid and returns its records in grid order;
	// aggregate folds them into degradation curves.
	campaign(cfg campaign.Config) ([]campaign.Record, error)
	aggregate(cfg campaign.Config, recs []campaign.Record) ([]campaign.Curve, error)
}

// public is the untraced runner: straight calls into the entry points.
type public struct{}

func (public) synthetic(cfg sim.SynthConfig) sim.SynthResult { return sim.RunSynthetic(cfg) }
func (public) app(cfg sim.AppConfig) sim.AppResult           { return sim.RunApp(cfg) }
func (public) resume(cfg sim.SynthConfig, blob []byte) (sim.SynthResult, error) {
	return sim.ResumeSynthetic(cfg, blob)
}
func (public) campaign(cfg campaign.Config) ([]campaign.Record, error) {
	return campaign.Run(cfg, nil, nil)
}
func (public) aggregate(cfg campaign.Config, recs []campaign.Record) ([]campaign.Curve, error) {
	return campaign.Aggregate(cfg, recs)
}

// workload is one named set of operations.
type workload struct {
	name string
	why  string
	// run executes every operation once through r and scores each.
	run func(p params, r runner) pass
	// setups lists the distinct sim.Options the workload builds; setup_s
	// is the summed cost of one standalone sim.Build of each.
	setups func(p params) []sim.Options
	// rerun, when set, is the traced run's extra untraced pass under a
	// changed knob (shards 2, Jobs 1): it files its ratio in d and
	// returns the operations it ran, compared against ref's.
	rerun func(p params, ref pass, d *traceData) []opResult
	// routerVNs/routerVCs is the router shape the isolated router probe
	// uses for this workload (the shape its ops mostly exercise).
	routerVNs, routerVCs int
}

// workloads returns the six workloads in report order.
func workloads() []workload {
	return []workload{
		fig7Uniform(), lowload16(), fig10Apps(), bigmesh32(), checkpointTelemetry(), campaignGrid(),
	}
}

// workloadByName resolves a -workload argument.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// guard runs one operation, turning a panic into a failed result so one
// broken run cannot take the remaining operations down with it.
func guard(name string, f func() opResult) (res opResult) {
	t0 := now()
	defer func() {
		if r := recover(); r != nil {
			res = opResult{fail: fmt.Sprintf("panic: %v", r)}
		}
		res.name = name
		res.wallNs = now() - t0
	}()
	return f()
}

// scoreSynth applies the synthetic-point checks. sustained marks the
// points a workload defines as below saturation: they must not
// saturate and must deliver at least 99% of their measured packets.
// Points near or past saturation (the upper rates of fig7_uniform) are
// bistable across seeds, so only conservation and a clean finish are
// demanded of them.
func scoreSynth(cfg sim.SynthConfig, res sim.SynthResult, sustained bool) opResult {
	out := opResult{
		fp:        fingerprint(res),
		cycles:    int64(cfg.Warmup + cfg.Measure + cfg.Drain),
		delivered: res.Delivered,
		samples:   res.Samples,
		avgLat:    res.AvgLatency,
		p99Lat:    res.P99Latency,
	}
	if res.Aborted {
		out.cycles = res.AbortCycle
	}
	faultFree := cfg.Faults == ""
	switch {
	case res.Created != res.Delivered+res.Stranded:
		out.fail = fmt.Sprintf("conservation: created %d != delivered %d + stranded %d", res.Created, res.Delivered, res.Stranded)
	case faultFree && res.Aborted:
		out.fail = "fault-free run aborted: " + res.AbortReport
	case faultFree && sustained && (res.Saturated || res.DeliveredFrac < 0.99):
		out.fail = fmt.Sprintf("point defined as sustainable did not sustain (latency %.1f, delivered %.4f of its measured packets)", res.AvgLatency, res.DeliveredFrac)
	}
	return out
}

func synthOp(r runner, name string, cfg sim.SynthConfig, sustained bool) opResult {
	return guard(name, func() opResult { return scoreSynth(cfg, r.synthetic(cfg), sustained) })
}

// distinctBuilds reduces the Options of a workload's operations to the
// distinct instances sim.Build constructs for them: operations that
// differ only in their seed share one.
func distinctBuilds(seed int64, opts []sim.Options) []sim.Options {
	seen := map[sim.Options]bool{}
	var out []sim.Options
	for _, o := range opts {
		o.Seed = seed
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// synthSetups is distinctBuilds over a list of synthetic points.
func synthSetups(p params, cfgs []sim.SynthConfig) []sim.Options {
	opts := make([]sim.Options, len(cfgs))
	for i, c := range cfgs {
		opts[i] = c.Options
	}
	return distinctBuilds(p.seed, opts)
}

// --- fig7_uniform ---

// fig7SustainedRate is the highest swept rate every scheme sustains
// with a wide margin; the delivery check applies up to it.
const fig7SustainedRate = 0.06

func fig7Points(p params) []sim.SynthConfig {
	var out []sim.SynthConfig
	for _, scheme := range []sim.Scheme{sim.FastPass, sim.EscapeVC, sim.SPIN, sim.MinBD} {
		for _, rate := range []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22} {
			cfg := sim.SynthConfig{
				Options: sim.Options{Scheme: scheme, W: 8, H: 8, Seed: p.seed},
				Pattern: traffic.Uniform, Rate: rate,
			}
			p.windows(&cfg, 1000, 3000, 2000)
			out = append(out, cfg)
		}
	}
	return out
}

func fig7Uniform() workload {
	return workload{
		name: "fig7_uniform",
		why:  "The paper's headline 8x8 latency sweep: ~87% of a scheme's host time is NIC+router allocation, so an allocator change must show here; SPIN adds PreCycle work, MinBD the allocating deflection engine.",
		run: func(p params, r runner) pass {
			var out []opResult
			for _, cfg := range fig7Points(p) {
				out = append(out, synthOp(r, fmt.Sprintf("%v@%.2f", cfg.Scheme, cfg.Rate), cfg, cfg.Rate <= fig7SustainedRate))
			}
			return pass{ops: out}
		},
		setups:    func(p params) []sim.Options { return synthSetups(p, fig7Points(p)) },
		routerVNs: 1, routerVCs: 4,
	}
}

// --- lowload_16x16 ---

func lowloadPoints(p params) []sim.SynthConfig {
	var out []sim.SynthConfig
	for _, scheme := range []sim.Scheme{sim.FastPass, sim.EscapeVC, sim.SPIN} {
		cfg := sim.SynthConfig{
			Options: sim.Options{Scheme: scheme, W: 16, H: 16, Seed: p.seed},
			Pattern: traffic.Uniform, Rate: 0.0005,
		}
		p.windows(&cfg, 50000, 200000, 50000)
		out = append(out, cfg)
	}
	return out
}

func lowload16() workload {
	return workload{
		name: "lowload_16x16",
		why:  "~4 of 256 routers awake: fixed per-cycle overhead (PreCycle scan, traffic generator, begin/shift) dominates and NIC+router is under a third on FastPass, so an allocator change predicts no change here.",
		run: func(p params, r runner) pass {
			var out []opResult
			for _, cfg := range lowloadPoints(p) {
				out = append(out, synthOp(r, cfg.Scheme.String(), cfg, true))
			}
			return pass{ops: out}
		},
		setups:    func(p params) []sim.Options { return synthSetups(p, lowloadPoints(p)) },
		routerVNs: 1, routerVCs: 4,
	}
}

// --- fig10_apps ---

// fig10Configs gives every cell its own seed. Sharing one seed across
// the matrix (as exp.Fig10 does, so every scheme sees the same offered
// traffic) makes the eight runs of an application rise and fall
// together: the summed ExecTime then moves 8% between seeds, with
// per-cell seeds 1% (measured over seeds 1..10) — and the driver judges
// the benchmark's steadiness across seeds.
func fig10Configs(p params) []sim.AppConfig {
	var out []sim.AppConfig
	for _, name := range apps.Fig10Apps() {
		for _, fs := range exp.Fig10Matrix() {
			app := apps.MustGet(name)
			app.WorkQuota = int64(p.cycles(3000))
			out = append(out, sim.AppConfig{
				Options: sim.Options{
					Scheme: fs.Scheme, W: 8, H: 8, VCs: fs.VCs,
					Seed:        p.seed*1000 + int64(len(out)),
					DrainPeriod: 512,
				},
				App: app,
			})
		}
	}
	return out
}

func scoreApp(res sim.AppResult) opResult {
	out := opResult{
		fp:        fingerprint(res),
		cycles:    res.ExecTime,
		delivered: int64(res.Samples),
		samples:   res.Samples,
		avgLat:    res.AvgLatency,
		p99Lat:    res.P99Latency,
	}
	switch {
	case res.Aborted:
		out.fail = "application run aborted: " + res.AbortReport
	case res.Timeout:
		out.fail = fmt.Sprintf("application run timed out at cycle %d with %d transactions complete", res.ExecTime, res.Completed)
	}
	return out
}

func fig10Apps() workload {
	return workload{
		name: "fig10_apps",
		why:  "Full Fig. 10 matrix (7 apps x 8 configs) of coherence traffic: six classes, 12 VCs/port under VNs, stall-able consumers, quota-terminated runs; covers every baseline controller and the protocol.",
		run: func(p params, r runner) pass {
			var out []opResult
			for _, cfg := range fig10Configs(p) {
				name := fmt.Sprintf("%s/%v-vc%d", cfg.App.Name, cfg.Scheme, cfg.VCs)
				out = append(out, guard(name, func() opResult { return scoreApp(r.app(cfg)) }))
			}
			return pass{ops: out}
		},
		setups: func(p params) []sim.Options {
			var opts []sim.Options
			for _, c := range fig10Configs(p) {
				opts = append(opts, c.Options)
			}
			return distinctBuilds(p.seed, opts) // one per (scheme, VCs)
		},
		routerVNs: 6, routerVCs: 2,
	}
}

// --- bigmesh_32x32 ---

func bigmeshPoint(p params) sim.SynthConfig {
	cfg := sim.SynthConfig{
		Options: sim.Options{Scheme: sim.FastPass, W: 32, H: 32, Seed: p.seed, Shards: 1},
		Pattern: traffic.Uniform, Rate: 0.02,
	}
	p.windows(&cfg, 1500, 3000, 1500)
	return cfg
}

func bigmesh32() workload {
	return workload{
		name: "bigmesh_32x32",
		why:  "1024 routers, working set past L2: the superlinear per-node cost and the allocations that reappear at 32x32 are visible only here, and sim.Build is large enough for setup_s to matter.",
		run: func(p params, r runner) pass {
			return pass{ops: []opResult{synthOp(r, "FastPass-32x32", bigmeshPoint(p), true)}}
		},
		setups: func(p params) []sim.Options { return []sim.Options{bigmeshPoint(p).Options} },
		// The same point at shards 2: what the sharded stepper costs on
		// this box, bit-identical by contract.
		rerun: func(p params, ref pass, d *traceData) []opResult {
			cfg := bigmeshPoint(p)
			cfg.Shards = 2
			runtime.GC()
			ops := []opResult{synthOp(public{}, "FastPass-32x32/shards2", cfg, true)}
			d.shard2Ratio = ratio(float64(ops[0].wallNs), float64(d.untracedWallNs))
			sameResults(ref.ops, ops, "between shards 1 and shards 2")
			return ops
		},
		routerVNs: 1, routerVCs: 4,
	}
}

// --- checkpoint_telemetry ---

const checkpointEvery = 25

func checkpointConfig(p params) sim.SynthConfig {
	cfg := sim.SynthConfig{
		Options: sim.Options{Scheme: sim.FastPass, W: 16, H: 16, Seed: p.seed},
		Pattern: traffic.Uniform, Rate: 0.03,
		CheckpointEvery: checkpointEvery,
	}
	p.windows(&cfg, 2000, 6000, 2000)
	return cfg
}

// telemetrySinks attaches three fresh discard sinks that hash what they
// are given (FNV-64a), so two passes' streams can be compared without
// keeping them.
func telemetrySinks(cfg *sim.SynthConfig) [3]hash.Hash64 {
	s := [3]hash.Hash64{fnv.New64a(), fnv.New64a(), fnv.New64a()}
	cfg.Telemetry = telemetry.Options{Window: 20, JSONL: s[0], NodeCSV: s[1], LinkCSV: s[2]}
	return s
}

// checkpointRun is what one pass over the workload leaves behind for
// the traced pass to compare itself against.
type checkpointRun struct {
	resumeCycle int64
	blob        []byte // the blob taken at resumeCycle
	blobs       int64
	blobBytes   int64
	streamHash  uint64 // telemetry bytes of the uninterrupted run
}

func checkpointTelemetry() workload {
	return workload{
		name: "checkpoint_telemetry",
		why:  "Snapshot encode (a blob every 25 cycles), restore and telemetry window close (every 20 cycles, three sinks) are idle on every other workload; encode is a third of the wall here.",
		run: func(p params, r runner) pass {
			cfg := checkpointConfig(p)
			total := int64(cfg.Warmup + cfg.Measure + cfg.Drain)
			resumeAt := total / 2 / checkpointEvery * checkpointEvery
			if resumeAt < checkpointEvery {
				resumeAt = checkpointEvery
			}
			run := checkpointRun{resumeCycle: resumeAt}
			var full sim.SynthResult
			first := guard("run+checkpoints", func() opResult {
				sinks := telemetrySinks(&cfg)
				cfg.OnCheckpoint = func(cycle int64, blob []byte) {
					run.blobs++
					run.blobBytes += int64(len(blob))
					if cycle == resumeAt {
						run.blob = blob
					}
				}
				full = r.synthetic(cfg)
				run.streamHash = combine([]uint64{sinks[0].Sum64(), sinks[1].Sum64(), sinks[2].Sum64()})
				out := scoreSynth(cfg, full, true)
				if out.fail == "" && run.blob == nil {
					out.fail = fmt.Sprintf("no checkpoint taken at cycle %d", resumeAt)
				}
				return out
			})
			second := guard("restore+resume", func() opResult {
				if run.blob == nil {
					return opResult{fail: "no blob to resume from"}
				}
				rcfg, err := sim.OpenCheckpoint(run.blob)
				if err != nil {
					return opResult{fail: "OpenCheckpoint: " + err.Error()}
				}
				telemetrySinks(&rcfg)
				rcfg.CheckpointEvery = 0
				res, err := r.resume(rcfg, run.blob)
				if err != nil {
					return opResult{fail: "ResumeSynthetic: " + err.Error()}
				}
				out := scoreSynth(cfg, res, true)
				out.cycles = total - resumeAt
				out.delivered = 0 // the uninterrupted run already counted them
				if out.fail == "" && out.fp != fingerprint(full) {
					out.fail = "resumed run's result differs from the uninterrupted run"
				}
				return out
			})
			return pass{ops: []opResult{first, second}, ckpt: run}
		},
		setups:    func(p params) []sim.Options { return []sim.Options{checkpointConfig(p).Options} },
		routerVNs: 1, routerVCs: 4,
	}
}

// --- campaign_grid ---

const campaignPlan = "linkfail:link=0,at=300,perm;linkfail:rate=2e-4,dur=64;corrupt:rate=1e-3;creditloss:rate=1e-5"

func campaignConfig(p params, jobs int) campaign.Config {
	base := sim.SynthConfig{
		Options: sim.Options{W: 8, H: 8, Faults: campaignPlan, Watchdog: "on"},
		Pattern: traffic.Uniform, Rate: 0.05,
	}
	p.windows(&base, 500, 2000, 1000)
	seeds := make([]int64, 6)
	for i := range seeds {
		seeds[i] = p.seed*1000 + int64(i) + 1
	}
	return campaign.Config{
		Base: base,
		Variants: []campaign.Variant{
			{Scheme: sim.FastPass}, {Scheme: sim.FastPass, Healing: true}, {Scheme: sim.EscapeVC},
		},
		Scales: []float64{0, 1, 4},
		Seeds:  seeds,
		Jobs:   jobs,
	}
}

// campaignJobs is the worker count of the measured campaign: both cores
// of the sizing box, the only workload that is not serial.
const campaignJobs = 2

// scoreCampaign turns a journal into one opResult per cell. The
// fault-free control cells must run clean (a Record carries only the
// whole-run delivered fraction, which counts packets still in flight
// when injection stops, so no 0.99 threshold applies); every cell's
// fingerprint is its journal line, so a Jobs=2 journal that differs
// from Jobs=1 shows as per-cell fingerprint mismatches.
func scoreCampaign(cfg campaign.Config, recs []campaign.Record) []opResult {
	total := int64(cfg.Base.Warmup + cfg.Base.Measure + cfg.Base.Drain)
	out := make([]opResult, len(recs))
	for i, rec := range recs {
		line, _ := campaign.EncodeRecord(rec) // finite values only; cannot fail
		h := fnv.New64a()
		h.Write(line)
		o := opResult{
			name: rec.Key(), fp: h.Sum64(), cycles: total, delivered: rec.Delivered,
		}
		if rec.Aborted {
			o.cycles = rec.TripCycle + 1
		}
		switch {
		case rec.Created != rec.Delivered+rec.Stranded:
			o.fail = fmt.Sprintf("conservation: created %d != delivered %d + stranded %d", rec.Created, rec.Delivered, rec.Stranded)
		case rec.Scale == 0 && (rec.Aborted || rec.Deadlock):
			o.fail = "fault-free control cell aborted"
		case rec.Scale == 0 && rec.Delivered == 0:
			o.fail = "fault-free control cell delivered nothing"
		}
		out[i] = o
	}
	return out
}

func campaignGrid() workload {
	return workload{
		name: "campaign_grid",
		why:  "Reliability campaign (3 variants x 3 fault scales x 6 seeds, watchdog on, Jobs 2): the only place faults, the per-cycle invariant Probe, lane healing and parallel.Map work; the only parallel workload.",
		run: func(p params, r runner) pass {
			cfg := campaignConfig(p, campaignJobs)
			var out []opResult
			whole := guard("campaign.Run", func() opResult {
				recs, err := r.campaign(cfg)
				if err != nil {
					return opResult{fail: err.Error()}
				}
				if _, err := r.aggregate(cfg, recs); err != nil {
					return opResult{fail: "Aggregate: " + err.Error()}
				}
				out = scoreCampaign(cfg, recs)
				return opResult{}
			})
			if whole.fail != "" {
				// A campaign that could not run fails every one of its cells.
				for _, pt := range campaign.Grid(cfg) {
					out = append(out, opResult{name: pt.Key(), fail: whole.fail})
				}
			}
			return pass{ops: out, unitNs: []int64{whole.wallNs}}
		},
		// The same grid at Jobs 1: parallel efficiency, the reference
		// the (serial) traced pass's overhead is taken against, and the
		// journal must be byte-equal at any worker count.
		rerun: func(p params, ref pass, d *traceData) []opResult {
			cfg := campaignConfig(p, 1)
			var ops []opResult
			var jobs1 int64
			// Twice, keeping the faster: d.untracedWallNs is already the
			// faster of two passes, and so is the traced wall.
			for i := 0; i < 2; i++ {
				runtime.GC()
				t0 := now()
				recs, err := campaign.Run(cfg, nil, nil)
				if dt := now() - t0; i == 0 || dt < jobs1 {
					jobs1 = dt
				}
				if err != nil {
					return []opResult{{name: "campaign.Run/jobs1", fail: err.Error()}}
				}
				ops = scoreCampaign(cfg, recs)
			}
			d.j2Efficiency = ratio(float64(jobs1), float64(campaignJobs)*float64(d.untracedWallNs))
			d.untracedWallNs = jobs1
			sameResults(ref.ops, ops, "between Jobs 2 and Jobs 1")
			return ops
		},
		setups: func(p params) []sim.Options {
			cfg := campaignConfig(p, 1)
			var opts []sim.Options
			for _, pt := range campaign.Grid(cfg) {
				opts = append(opts, cellConfig(cfg, pt).Options)
			}
			return distinctBuilds(p.seed, opts) // one per (variant, scale)
		},
		routerVNs: 1, routerVCs: 4,
	}
}

// cellConfig derives a grid cell's run config the way campaign.Run does
// (campaign's own derivation is unexported); TestMirrorCampaign pins the
// two against each other through the journal bytes.
func cellConfig(c campaign.Config, pt campaign.Point) sim.SynthConfig {
	cfg := c.Base
	cfg.Scheme = pt.Variant.Scheme
	cfg.FPHealing = pt.Variant.Healing
	cfg.VCs = 0
	cfg.Seed = pt.Seed
	if pt.Scale == 0 {
		cfg.Faults = ""
		cfg.FaultScale = 0
	} else {
		cfg.FaultScale = pt.Scale
	}
	return cfg
}
