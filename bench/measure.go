package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/sim"
)

// End-to-end metric names (BENCHMARK.json lists the same).
const (
	mWall      = "wall_s"
	mCyclesPS  = "sim_cycles_per_s"
	mPktsPS    = "delivered_pkts_per_s"
	mAllocsPKC = "allocs_per_kcycle"
	mAllocMB   = "alloc_mb"
	mSetup     = "setup_s"
)

// endToEnd lists the end-to-end metrics in report order with their
// units. Host time = what the simulator takes; simulated = what the
// modelled NoC would take.
var endToEnd = []struct{ name, unit string }{
	{mWall, "s"},             // host seconds for the workload's fixed operations, sim.Build included
	{mCyclesPS, "1/s"},       // simulated cycles per host second
	{mPktsPS, "1/s"},         // packets ejected per host second
	{mAllocsPKC, "1/kcycle"}, // runtime mallocs per 1000 simulated cycles
	{mAllocMB, "MB"},         // bytes allocated over the operations
	{mSetup, "s"},            // one standalone sim.Build of each distinct config
}

// unitOf returns an end-to-end metric's unit.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	panic(fmt.Sprintf("bench: no end-to-end metric %q", name))
}

// Repetition policy: a run repeats the workload's fixed operations
// back to back until -seconds of measured time have passed, and never
// fewer than benchMinReps times (a smoke run: twice, so the
// repeats-exactly check still runs). wall_s is the sum over the
// workload's timed units (operations) of each unit's median across the
// repetitions; the allocation metrics are medians over repetitions;
// setup_s is the median of at least setupRounds rounds per repetition.
const (
	benchMinReps   = 3
	smokeMinReps   = 2
	setupRounds    = 7
	setupMaxRounds = 25
	setupBudget    = 0.1 // seconds, per repetition
)

// metricStat is one metric of one run: the median over repetitions and
// the repetitions themselves.
type metricStat struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values,omitempty"`
}

// runLine is one run of one workload — a line of the -out report.
type runLine struct {
	Workload       string                `json:"workload"`
	Seed           int64                 `json:"seed"`
	Trace          int                   `json:"trace"`
	Smoke          bool                  `json:"smoke,omitempty"` // not comparable
	Reps           int                   `json:"reps"`
	Correct        bool                  `json:"correct"`
	Attempted      int                   `json:"attempted"`
	Failed         int                   `json:"failed"`
	Failures       []string              `json:"failures,omitempty"`
	SimFingerprint string                `json:"sim_fingerprint"`
	Metrics        map[string]metricStat `json:"metrics"`
	// UnitS (untraced runs) is each timed unit's median host seconds:
	// per operation, where wall_s is their sum.
	UnitS map[string]float64 `json:"unit_s,omitempty"`
	// PhasePct (traced runs) is each span name's busy share of the
	// traced pass's wall, in percent; phases nest, so they do not sum
	// to 100.
	PhasePct  map[string]float64 `json:"phase_pct,omitempty"`
	NProc     int                `json:"nproc"`
	GoVersion string             `json:"go_version"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func stat(unit string, values []float64) metricStat {
	st := metricStat{Value: median(values), Unit: unit, Values: values}
	for i, v := range values {
		if i == 0 || v < st.Min {
			st.Min = v
		}
		if i == 0 || v > st.Max {
			st.Max = v
		}
	}
	return st
}

// failures collects "op: reason" for every failed operation of a pass.
func failures(label string, ops []opResult) []string {
	var out []string
	for _, o := range ops {
		if o.fail != "" {
			out = append(out, fmt.Sprintf("%s %s: %s", label, o.name, o.fail))
		}
	}
	return out
}

// sameResults marks operations of got whose fingerprint differs from
// the reference pass: a deterministic simulator must repeat exactly.
func sameResults(ref, got []opResult, what string) {
	for i := range got {
		if got[i].fail != "" {
			continue
		}
		if i >= len(ref) || ref[i].fp != got[i].fp {
			got[i].fail = "result fingerprint differs " + what
		}
	}
}

func fingerprintOf(ops []opResult) string {
	fps := make([]uint64, len(ops))
	for i, o := range ops {
		fps[i] = o.fp
	}
	return fmt.Sprintf("%016x", combine(fps))
}

func newLine(w workload, p params, trace int) runLine {
	return runLine{
		Workload: w.name, Seed: p.seed, Trace: trace, Smoke: p.scale != benchScale,
		Metrics: map[string]metricStat{},
		NProc:   runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// hostCost is what one pass cost the host.
type hostCost struct {
	wallNs         int64
	mallocs, bytes uint64
	gcs            uint32
	gcPauseNs      uint64
}

// timedPass runs the workload's operations once through r and reports
// the host time and the allocator deltas around them. It collects
// garbage first so every pass starts from the same heap.
func timedPass(w workload, p params, r runner) (pass, hostCost) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := now()
	ps := w.run(p, r)
	wallNs := now() - t0
	runtime.ReadMemStats(&m1)
	return ps, hostCost{
		wallNs:  wallNs,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs: m1.NumGC - m0.NumGC, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// measureSetup times one standalone sim.Build of each distinct config,
// over and over: at least setupRounds rounds, more while they are cheap
// (a round is about a millisecond on the 8x8 workloads). It is called
// once before every repetition, so the rounds behind setup_s's median
// are spread over the whole run like the repetitions are, and a slow
// spell of the host shorter than the run cannot move it.
func measureSetup(opts []sim.Options) []float64 {
	var rounds []float64
	var spent float64
	for len(rounds) < setupRounds || (spent < setupBudget && len(rounds) < setupMaxRounds) {
		runtime.GC()
		t0 := now()
		for _, o := range opts {
			sim.Build(o)
		}
		dt := float64(now()-t0) / 1e9
		spent += dt
		rounds = append(rounds, dt)
	}
	return rounds
}

// measureEndToEnd is the untraced run: set-up, then repetitions of the
// workload through the public entry points.
func measureEndToEnd(w workload, p params, seconds float64, minReps int) runLine {
	line := newLine(w, p, 0)
	opts := w.setups(p)
	var setups, walls, apk, amb []float64
	var units [][]float64 // per timed unit, its host seconds in each repetition
	var first []opResult
	var measured float64
	var cycles, delivered int64
	// Stop at the repetition count whose measured time lands nearest
	// -seconds: another one starts only while half of it still fits.
	for len(walls) < minReps || measured+measured/float64(2*len(walls)) < seconds {
		setups = append(setups, measureSetup(opts)...)
		ps, cost := timedPass(w, p, public{})
		if first == nil {
			first = ps.ops
			units = make([][]float64, len(ps.units()))
			for _, o := range ps.ops {
				cycles += o.cycles
				delivered += o.delivered
			}
		} else {
			sameResults(first, ps.ops, "from the first repetition")
		}
		line.Attempted += len(ps.ops)
		line.Failures = append(line.Failures, failures(fmt.Sprintf("rep %d", len(walls)), ps.ops)...)
		for i, ns := range ps.units() {
			units[i] = append(units[i], float64(ns)/1e9)
		}
		wall := float64(cost.wallNs) / 1e9
		measured += wall
		walls = append(walls, wall)
		apk = append(apk, ratio(float64(cost.mallocs)*1000, float64(cycles)))
		amb = append(amb, float64(cost.bytes)/1e6)
	}
	line.Reps = len(walls)
	line.Failed = len(line.Failures)
	line.Correct = line.Failed == 0
	line.SimFingerprint = fingerprintOf(first)

	wall := stat(unitOf(mWall), walls)
	wall.Value = 0
	line.UnitS = map[string]float64{}
	for i, u := range units {
		wall.Value += median(u)
		name := w.name
		if len(units) == len(first) {
			name = first[i].name
		}
		line.UnitS[name] = median(u)
	}
	line.Metrics[mWall] = wall
	// The simulated totals repeat exactly, so the two rates are the
	// fixed totals over wall_s (and, per repetition, over its wall).
	rate := func(total int64) metricStat {
		perRep := make([]float64, len(walls))
		for i, w := range walls {
			perRep[i] = ratio(float64(total), w)
		}
		st := stat(unitOf(mCyclesPS), perRep)
		st.Value = ratio(float64(total), wall.Value)
		return st
	}
	line.Metrics[mCyclesPS] = rate(cycles)
	line.Metrics[mPktsPS] = rate(delivered)
	line.Metrics[mAllocsPKC] = stat(unitOf(mAllocsPKC), apk)
	line.Metrics[mAllocMB] = stat(unitOf(mAllocMB), amb)
	line.Metrics[mSetup] = stat(unitOf(mSetup), setups)
	return line
}

// minUnits sums, over the timed units of two passes of the same
// operations, the faster of each unit's two host times: the estimate of
// a pass's cost least disturbed by host noise.
func minUnits(a, b pass) int64 {
	ua, ub := a.units(), b.units()
	var sum int64
	for i := range ua {
		sum += min(ua[i], ub[i])
	}
	return sum
}

// measureTraced is the traced run. It alternates two untraced passes
// (the reference for fingerprints and for the tracing overhead) with
// two traced ones — the same operations through the mirrored loops,
// spans recorded — then makes the workload's re-run, if it has one, and
// runs the isolated probes. Per-layer metrics come from the faster
// traced pass; end-to-end metrics are never taken here.
func measureTraced(w workload, p params) (runLine, traceFile) {
	line := newLine(w, p, 1)
	check := func(label string, ops []opResult) {
		line.Attempted += len(ops)
		line.Failures = append(line.Failures, failures(label, ops)...)
	}
	var refs, gots [2]pass
	var costs [2]hostCost
	var tracers [2]*tracer
	for i := range refs {
		refs[i], _ = timedPass(w, p, public{})
		if i > 0 {
			sameResults(refs[0].ops, refs[i].ops, "from the first untraced pass")
		}
		check(fmt.Sprintf("untraced %d", i), refs[i].ops)

		ref := refs[0]
		tracers[i] = newTracer(w.name)
		tracers[i].meta = blobMeta(ref.ckpt.blob)
		gots[i], costs[i] = timedPass(w, p, tracers[i])
		tracers[i].finish()
		got := gots[i]
		sameResults(ref.ops, got.ops, "between the untraced and the traced pass")
		if ref.ckpt.blob != nil && got.ops[0].fail == "" {
			switch {
			case !bytes.Equal(ref.ckpt.blob, got.ckpt.blob):
				got.ops[0].fail = fmt.Sprintf("checkpoint blob at cycle %d differs from the untraced pass", ref.ckpt.resumeCycle)
			case ref.ckpt.streamHash != got.ckpt.streamHash || ref.ckpt.blobs != got.ckpt.blobs:
				got.ops[0].fail = "telemetry stream or checkpoint count differs from the untraced pass"
			}
		}
		check(fmt.Sprintf("traced %d", i), got.ops)
	}
	best := 0
	if costs[1].wallNs < costs[0].wallNs {
		best = 1
	}
	d := &traceData{
		t: tracers[best], ops: gots[best].ops,
		untracedWallNs: minUnits(refs[0], refs[1]), tracedWallNs: minUnits(gots[0], gots[1]),
		numGC: costs[best].gcs, gcPauseNs: costs[best].gcPauseNs,
	}
	if w.rerun != nil {
		check("rerun", w.rerun(p, refs[0], d))
	}
	d.routerOcc0, d.routerOccHalf, d.routerOccFull = routerProbe(p.seed, w.routerVNs, w.routerVCs)
	d.nicInjectNs, d.nicConsumeNs = nicProbe()
	d.parallelNs = parallelProbe()

	for _, m := range layerMetrics() {
		v := m.value(d)
		line.Metrics[m.name] = metricStat{Value: v, Unit: m.unit, Min: v, Max: v}
	}
	line.Reps = len(gots)
	line.Failed = len(line.Failures)
	line.Correct = line.Failed == 0
	line.SimFingerprint = fingerprintOf(refs[0].ops)

	// Share of the traced pass's wall each span name was busy for: the
	// attribution table (children are included in their parents).
	line.PhasePct = map[string]float64{}
	tf := traceFile{Workload: w.name, Seed: p.seed}
	for _, s := range d.t.spans {
		if s.Count == 0 {
			continue
		}
		tf.Spans = append(tf.Spans, s)
		if s != d.t.root && s.Name != spOp {
			line.PhasePct[s.Name] += 100 * ratio(float64(s.BusyNs), float64(costs[best].wallNs))
		}
	}
	return line, tf
}
