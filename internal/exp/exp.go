// Package exp contains the per-figure experiment drivers: one function
// per table/figure of the paper, each returning a Plan — the artefact's
// independent simulations as cells, and a Result that assembles them
// into the printable result cmd/paperfigs renders and EXPERIMENTS.md
// records. The Quick flag shrinks meshes and windows so the whole
// suite runs in minutes; Full uses the paper's dimensions.
package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Scale selects experiment fidelity.
type Scale struct {
	// Quick shrinks the mesh to 4×4 (8×8 stays for Fig. 8's scaling
	// story), shortens windows, and thins rate grids.
	Quick bool
}

// Plan is a driver's artefact as data: Cells are its independent
// simulations (one synthetic run, serial rate sweep, bisection or
// application run each), which the caller runs in any order and
// concurrency; each writes only its own result slot. Once every cell
// has run, Result assembles the artefact from the slots; it simulates
// nothing, so it may be called more than once.
type Plan[R any] struct {
	Cells  []func()
	Result func() R
}

// each splits fn over items, one cell per item; the plan's Result is
// the outputs in item order.
func each[T, V any](items []T, fn func(T) V) Plan[[]V] {
	out := make([]V, len(items))
	p := Plan[[]V]{Cells: make([]func(), len(items)), Result: func() []V { return out }}
	for i, item := range items {
		p.Cells[i] = func() { out[i] = fn(item) }
	}
	return p
}

// assemble is p with its Result passed through fn.
func assemble[V, R any](p Plan[V], fn func(V) R) Plan[R] {
	return Plan[R]{Cells: p.Cells, Result: func() R { return fn(p.Result()) }}
}

// mesh returns the evaluation mesh size.
func (s Scale) mesh() int {
	if s.Quick {
		return 4
	}
	return 8
}

func (s Scale) windows() (w, m, d int) {
	if s.Quick {
		return 1000, 3000, 2000
	}
	return 2000, 6000, 4000
}

// base assembles the common synthetic config. DRAIN's 64K-cycle period
// exceeds the measurement windows, so experiments scale it down
// proportionally (documented in EXPERIMENTS.md); SWAP keeps its 1K duty.
func (s Scale) base(scheme sim.Scheme, pattern traffic.Pattern, seed int64) sim.SynthConfig {
	w, m, d := s.windows()
	return sim.SynthConfig{
		Options: sim.Options{
			Scheme: scheme, W: s.mesh(), H: s.mesh(), Seed: seed,
			DrainPeriod: 4096,
		},
		Pattern: pattern,
		Warmup:  w, Measure: m, Drain: d,
	}
}

// Fig7Schemes is the scheme set of Fig. 7.
func Fig7Schemes() []sim.Scheme {
	return []sim.Scheme{sim.EscapeVC, sim.SPIN, sim.SWAP, sim.DRAIN,
		sim.Pitstop, sim.MinBD, sim.TFC, sim.FastPass}
}

// Fig7Patterns is the pattern set of Fig. 7 (the three sub-figures plus
// the Uniform series of the embedded data table).
func Fig7Patterns() []traffic.Pattern {
	return []traffic.Pattern{traffic.Uniform, traffic.Transpose, traffic.Shuffle, traffic.BitRotation}
}

// Fig7Rates is the injection-rate grid.
func (s Scale) Fig7Rates() []float64 {
	if s.Quick {
		return []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22}
	}
	return []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20, 0.22, 0.26, 0.30}
}

// Fig7Result holds one pattern's latency curves.
type Fig7Result struct {
	Pattern traffic.Pattern
	Rates   []float64
	// Schemes orders the curves: the table's and the CSV's columns.
	Schemes []sim.Scheme
	// Series[scheme name] parallel to Rates; saturated points are NaN.
	Series map[string][]float64
	// SatRate[scheme name] is the first saturated rate (or -1).
	SatRate map[string]float64
}

// Fig7 measures latency-vs-injection-rate for one pattern, one serial
// sweep per scheme.
func Fig7(s Scale, pattern traffic.Pattern) Plan[Fig7Result] {
	rates := s.Fig7Rates()
	sweeps := each(Fig7Schemes(), func(scheme sim.Scheme) []sim.SynthResult {
		return sim.SweepLatency(s.base(scheme, pattern, 1), rates)
	})
	return assemble(sweeps, func(sweeps [][]sim.SynthResult) Fig7Result {
		return NewFig7Result(pattern, rates, Fig7Schemes(), sweeps)
	})
}

// NewFig7Result collects one latency sweep per scheme, each parallel to
// rates, into curves.
func NewFig7Result(pattern traffic.Pattern, rates []float64, schemes []sim.Scheme, sweeps [][]sim.SynthResult) Fig7Result {
	res := Fig7Result{
		Pattern: pattern,
		Rates:   rates,
		Schemes: schemes,
		Series:  map[string][]float64{},
		SatRate: map[string]float64{},
	}
	for i, scheme := range schemes {
		var lat []float64
		sat := -1.0
		for _, p := range sweeps[i] {
			if p.Saturated {
				lat = append(lat, math.NaN())
				if sat < 0 {
					sat = p.Rate
				}
			} else {
				lat = append(lat, p.AvgLatency)
			}
		}
		res.Series[scheme.String()] = lat
		res.SatRate[scheme.String()] = sat
	}
	return res
}

// String renders the Fig. 7 table.
func (r Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — average packet latency vs injection rate (%v)\n", r.Pattern)
	fmt.Fprintf(&b, "%-10s", "rate")
	for _, sc := range r.Schemes {
		fmt.Fprintf(&b, "%11s", sc)
	}
	b.WriteByte('\n')
	for i, rate := range r.Rates {
		fmt.Fprintf(&b, "%-10.2f", rate)
		for _, sc := range r.Schemes {
			v := r.Series[sc.String()][i]
			if v != v {
				fmt.Fprintf(&b, "%11s", "SAT")
			} else {
				fmt.Fprintf(&b, "%11.1f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig8Schemes is the scheme set of Fig. 8.
func Fig8Schemes() []sim.Scheme {
	return []sim.Scheme{sim.SPIN, sim.SWAP, sim.DRAIN, sim.Pitstop, sim.FastPass}
}

// Fig8Sizes is the mesh-size axis.
func (s Scale) Fig8Sizes() []int {
	if s.Quick {
		return []int{4, 8}
	}
	return []int{4, 8, 16}
}

// Fig8Result holds saturation throughput per scheme per size.
type Fig8Result struct {
	Sizes []int
	// Sat[scheme name][i] is the saturation throughput at Sizes[i] in
	// accepted packets/node/cycle.
	Sat map[string][]float64
}

// Fig8 bisects saturation throughput across network sizes (Transpose,
// Table II), one serial bisection per (scheme, size) cell. The cells
// are laid out largest mesh first, so the longest start first.
func Fig8(s Scale) Plan[Fig8Result] {
	sizes := s.Fig8Sizes()
	type cell struct {
		scheme sim.Scheme
		size   int // index into sizes
	}
	var cells []cell
	for i := len(sizes) - 1; i >= 0; i-- {
		for _, scheme := range Fig8Schemes() {
			cells = append(cells, cell{scheme: scheme, size: i})
		}
	}
	thrs := each(cells, func(c cell) float64 {
		size := sizes[c.size]
		cfg := s.base(c.scheme, traffic.Transpose, 1)
		cfg.W, cfg.H = size, size
		if size >= 16 {
			// Keep 256-node bisection tractable.
			cfg.Warmup, cfg.Measure, cfg.Drain = 1000, 2500, 2000
		}
		_, thr := sim.SaturationThroughput(cfg, 0.01, 0.6, 6)
		return thr
	})
	return assemble(thrs, func(thrs []float64) Fig8Result {
		res := Fig8Result{Sizes: sizes, Sat: map[string][]float64{}}
		for _, scheme := range Fig8Schemes() {
			res.Sat[scheme.String()] = make([]float64, len(sizes))
		}
		for i, c := range cells {
			res.Sat[c.scheme.String()][c.size] = thrs[i]
		}
		return res
	})
}

// String renders the Fig. 8 table.
func (r Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — saturation throughput vs network size (Transpose)\n")
	fmt.Fprintf(&b, "%-10s", "size")
	for _, sc := range Fig8Schemes() {
		fmt.Fprintf(&b, "%11s", sc)
	}
	b.WriteByte('\n')
	for i, size := range r.Sizes {
		fmt.Fprintf(&b, "%-10s", fmt.Sprintf("%dx%d", size, size))
		for _, sc := range Fig8Schemes() {
			fmt.Fprintf(&b, "%11.3f", r.Sat[sc.String()][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig9Point is one injection rate's latency split for FastPass packets
// vs regular packets (Uniform, 1 VC).
type Fig9Point struct {
	Rate float64
	// RegularPktLatency is the mean latency of never-promoted packets.
	RegularPktLatency float64
	// FastRegular/FastBufferless split promoted packets' latency into
	// buffered (regular-pass) time and lane (bufferless) time.
	FastRegular, FastBufferless float64
	FastFraction                float64
}

// Fig9 measures the latency breakdown (Uniform traffic, 1 VC).
func Fig9(s Scale) Plan[[]Fig9Point] {
	rates := []float64{0.01, 0.03, 0.05, 0.07, 0.09, 0.11}
	if !s.Quick {
		rates = append(rates, 0.13, 0.15)
	}
	return each(rates, func(rate float64) Fig9Point {
		cfg := s.base(sim.FastPass, traffic.Uniform, 1)
		cfg.VCs = 1
		cfg.Rate = rate
		// The 1-VC network saturates early; keep injecting but extend
		// the drain so the measured packets still deliver (the paper
		// reports FastPass-Packet splits "including post saturation").
		cfg.Drain = 10 * cfg.Measure
		r := sim.RunSynthetic(cfg)
		return Fig9Point{
			Rate:              rate,
			RegularPktLatency: r.RegularLatency,
			FastRegular:       r.FastSplitRegular,
			FastBufferless:    r.FastSplitFast,
			FastFraction:      r.FastFrac,
		}
	})
}

// Fig9String renders the Fig. 9 table.
func Fig9String(points []Fig9Point) string {
	var b strings.Builder
	b.WriteString("Fig. 9 — FastPass-Packet latency split (Uniform, 1 VC)\n")
	b.WriteString("rate     regular-pkt-lat   fp-buffered   fp-bufferless   fp-frac\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.2f %15.1f %13.1f %15.1f %9.2f\n",
			p.Rate, p.RegularPktLatency, p.FastRegular, p.FastBufferless, p.FastFraction)
	}
	return b.String()
}

// Fig10Schemes is the scheme/VC matrix of Figs. 10 and 12.
type Fig10Scheme struct {
	Scheme sim.Scheme
	VCs    int
	Label  string
}

// Fig10Matrix returns the configurations of Fig. 10.
func Fig10Matrix() []Fig10Scheme {
	return []Fig10Scheme{
		{sim.EscapeVC, 2, "EscapeVC(VN=6,VC=2)"},
		{sim.SPIN, 2, "SPIN(VN=6,VC=2)"},
		{sim.SWAP, 2, "SWAP(VN=6,VC=2)"},
		{sim.DRAIN, 2, "DRAIN(VN=6,VC=2)"},
		{sim.Pitstop, 2, "Pitstop(VN=0,VC=2)"},
		{sim.TFC, 2, "TFC(VN=6,VC=2)"},
		{sim.FastPass, 2, "FastPass(VN=0,VC=2)"},
		{sim.FastPass, 4, "FastPass(VN=0,VC=4)"},
	}
}

// Fig10Cell is one (app, scheme) measurement.
type Fig10Cell struct {
	App, Scheme string
	AvgLatency  float64
	P99Latency  float64
	ExecTime    int64
	Timeout     bool
	// Breakdown for Fig. 13(b) (FastPass cells).
	RegularFrac, FastFrac, DroppedFrac float64
}

// Fig10Apps returns the application list.
func (s Scale) Fig10Apps() []string {
	if s.Quick {
		return []string{"Radix", "Canneal", "FFT"}
	}
	return workload.Fig10Apps()
}

// runApp runs one application on the evaluation mesh at seed 11; a
// quick run shrinks the work quota and bounds the cycles.
func (s Scale) runApp(name string, o sim.Options) sim.AppResult {
	o.W, o.H, o.Seed = s.mesh(), s.mesh(), 11
	cfg := sim.AppConfig{Options: o, App: workload.MustGet(name)}
	if s.Quick {
		cfg.App.WorkQuota, cfg.MaxCycles = 600, 250000
	}
	return sim.RunApp(cfg)
}

// Fig10 runs every app on every configuration, one cell per (app,
// scheme) run. It also provides the data for Fig. 12 (p99) and
// Fig. 13(b).
func Fig10(s Scale) Plan[[]Fig10Cell] {
	type task struct {
		app string
		fs  Fig10Scheme
	}
	var tasks []task
	for _, appName := range s.Fig10Apps() {
		for _, fs := range Fig10Matrix() {
			tasks = append(tasks, task{app: appName, fs: fs})
		}
	}
	return each(tasks, func(t task) Fig10Cell {
		r := s.runApp(t.app, sim.Options{
			Scheme: t.fs.Scheme, VCs: t.fs.VCs,
			// Application runs complete in a few thousand cycles —
			// roughly 1000x shorter than the real executions the
			// paper's 64K-cycle DRAIN period was set against — so the
			// period scales down with them to keep the drains-per-run
			// ratio comparable.
			DrainPeriod: 512,
		})
		return Fig10Cell{
			App: t.app, Scheme: t.fs.Label,
			AvgLatency: r.AvgLatency, P99Latency: r.P99Latency,
			ExecTime: r.ExecTime, Timeout: r.Timeout,
			RegularFrac: r.RegularFrac, FastFrac: r.FastFrac, DroppedFrac: r.DroppedFrac,
		}
	})
}

// Fig10String renders latency and normalized execution time.
func Fig10String(cells []Fig10Cell) string {
	var b strings.Builder
	b.WriteString("Fig. 10 — average packet latency / execution time normalized to EscapeVC\n")
	byApp := map[string][]Fig10Cell{}
	var apps []string
	for _, c := range cells {
		if _, ok := byApp[c.App]; !ok {
			apps = append(apps, c.App)
		}
		byApp[c.App] = append(byApp[c.App], c)
	}
	for _, app := range apps {
		var escExec int64
		for _, c := range byApp[app] {
			if strings.HasPrefix(c.Scheme, "EscapeVC") {
				escExec = c.ExecTime
			}
		}
		fmt.Fprintf(&b, "%s:\n", app)
		for _, c := range byApp[app] {
			norm := float64(c.ExecTime) / float64(escExec)
			mark := ""
			if c.Timeout {
				mark = " (timeout)"
			}
			fmt.Fprintf(&b, "  %-22s lat %7.1f   p99 %8.0f   exec %8d (norm %.3f)%s\n",
				c.Scheme, c.AvgLatency, c.P99Latency, c.ExecTime, norm, mark)
		}
	}
	return b.String()
}

// Fig13Point is one Fig. 13(a) bar: the packet-type breakdown at an
// injection rate (FastPass, Uniform, 1 VC).
type Fig13Point struct {
	Rate                               float64
	RegularFrac, FastFrac, DroppedFrac float64
}

// Fig13a sweeps the breakdown across rates.
func Fig13a(s Scale) Plan[[]Fig13Point] {
	rates := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	if !s.Quick {
		rates = append(rates, 0.14, 0.16)
	}
	return each(rates, func(rate float64) Fig13Point {
		cfg := s.base(sim.FastPass, traffic.Uniform, 1)
		cfg.VCs = 1
		cfg.Rate = rate
		// As in Fig. 9: drain long enough that post-saturation packets
		// still classify (the dropped fraction is the point).
		cfg.Drain = 10 * cfg.Measure
		r := sim.RunSynthetic(cfg)
		return Fig13Point{
			Rate: rate, RegularFrac: r.RegularFrac, FastFrac: r.FastFrac, DroppedFrac: r.DroppedFrac,
		}
	})
}

// Fig13aString renders Fig. 13(a).
func Fig13aString(points []Fig13Point) string {
	var b strings.Builder
	b.WriteString("Fig. 13(a) — packet-type breakdown, Uniform, 1 VC\n")
	b.WriteString("rate     regular    fastpass   dropped\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.2f %8.3f %11.3f %9.4f\n", p.Rate, p.RegularFrac, p.FastFrac, p.DroppedFrac)
	}
	return b.String()
}

// Fig13b measures per-app packet-type breakdowns (FastPass, 1 VC).
func Fig13b(s Scale) Plan[[]Fig10Cell] {
	apps := workload.Fig13Apps()
	if s.Quick {
		apps = apps[:3]
	}
	return each(apps, func(appName string) Fig10Cell {
		r := s.runApp(appName, sim.Options{Scheme: sim.FastPass, VCs: 1})
		return Fig10Cell{
			App: appName, Scheme: "FastPass(VC=1)",
			RegularFrac: r.RegularFrac, FastFrac: r.FastFrac, DroppedFrac: r.DroppedFrac,
		}
	})
}

// Fig13bString renders Fig. 13(b).
func Fig13bString(cells []Fig10Cell) string {
	var b strings.Builder
	b.WriteString("Fig. 13(b) — packet-type breakdown, applications, 1 VC\n")
	b.WriteString("app             regular    fastpass   dropped\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-15s %8.3f %11.3f %9.4f\n", c.App, c.RegularFrac, c.FastFrac, c.DroppedFrac)
	}
	return b.String()
}

// Fig12String renders the p99 tail-latency view of the Fig. 10 data
// (Fig. 12 uses the same runs, minus TFC and Streamcluster).
func Fig12String(cells []Fig10Cell) string {
	var b strings.Builder
	b.WriteString("Fig. 12 — 99th-percentile packet latency (cycles)\n")
	for _, c := range cells {
		if strings.HasPrefix(c.Scheme, "TFC") || c.App == "Streamcluster" {
			continue
		}
		if strings.HasPrefix(c.Scheme, "FastPass(VN=0,VC=4)") {
			continue
		}
		fmt.Fprintf(&b, "%-15s %-22s %10.0f\n", c.App, c.Scheme, c.P99Latency)
	}
	return b.String()
}

// AblationRow is one variant's outcome inside an ablation study.
type AblationRow struct {
	Variant string
	Metrics string
}

// AblationResult is one design-choice study.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Ablations runs the design-choice studies DESIGN.md calls out:
//
//   - reserve-and-return vs SCARAB-style drop-on-reject (§III-C4), on
//     protocol traffic where ejection queues actually fill: the dropped
//     fraction explodes without the returning path;
//   - full input-buffer scan vs injection-only promotion (§III-C3), on
//     post-saturation synthetic traffic: without in-transit rescues the
//     congested network cannot deliver the measured window at all.
func Ablations(s Scale) Plan[[]AblationResult] {
	// Drop-on-reject: Canneal at 1 VC keeps ejection queues hot.
	app := workload.MustGet("Canneal")
	if s.Quick {
		app.WorkQuota = 600
	}
	appArm := func(drop bool) func() string {
		return func() string {
			r := sim.RunApp(sim.AppConfig{
				// 4×4 keeps the 1-VC network out of its crawl regime
				// while the hot homes still fill ejection queues, so
				// rejections — the event the two designs handle
				// differently — occur at a healthy operating point.
				Options: sim.Options{
					Scheme: sim.FastPass, W: 4, H: 4, VCs: 1,
					Seed: 11, FPDropOnReject: drop,
				},
				App: app,
			})
			return fmt.Sprintf("lat %8.1f  p99 %7.0f  exec %7d  dropFrac %.4f",
				r.AvgLatency, r.P99Latency, r.ExecTime, r.DroppedFrac)
		}
	}

	// Injection-only scan: post-saturation uniform traffic.
	synArm := func(injectionOnly bool) func() string {
		return func() string {
			cfg := s.base(sim.FastPass, traffic.Uniform, 1)
			cfg.VCs = 1
			cfg.Rate = 0.10
			cfg.Drain = 10 * cfg.Measure
			cfg.FPScanInjectionOnly = injectionOnly
			r := sim.RunSynthetic(cfg)
			return fmt.Sprintf("delivered %5.1f%%  fastFrac %.3f  p99 %9.0f",
				100*r.DeliveredFrac, r.FastFrac, r.P99Latency)
		}
	}

	arms := each([]func() string{appArm(false), appArm(true), synArm(false), synArm(true)},
		func(arm func() string) string { return arm() })
	return assemble(arms, func(rows []string) []AblationResult {
		return []AblationResult{
			{
				Name: "reserve-and-return vs drop-on-reject (Canneal, 1 VC)",
				Rows: []AblationRow{{Variant: "paper", Metrics: rows[0]}, {Variant: "ablated", Metrics: rows[1]}},
			},
			{
				Name: "full scan vs injection-only promotion (Uniform 0.10, 1 VC)",
				Rows: []AblationRow{{Variant: "paper", Metrics: rows[2]}, {Variant: "ablated", Metrics: rows[3]}},
			},
		}
	})
}

// AblationsString renders the ablation table.
func AblationsString(rs []AblationResult) string {
	var b strings.Builder
	b.WriteString("Ablations — FastPass design choices\n")
	for _, r := range rs {
		b.WriteString(r.Name + ":\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-8s %s\n", row.Variant, row.Metrics)
		}
	}
	return b.String()
}

// VCPoint is one FastPass VC-count configuration's saturation result.
type VCPoint struct {
	VCs      int
	SatRate  float64
	SatThr   float64
	ZeroLoad float64
}

// VCSensitivity sweeps FastPass's VC count over Table II's {1, 2, 4}
// (Uniform traffic): the paper's point is that FastPass *works* with a
// single VC — deadlock-free and with graceful throughput — while the
// bypass baselines need several.
func VCSensitivity(s Scale) Plan[[]VCPoint] {
	return each([]int{1, 2, 4}, func(vcs int) VCPoint {
		cfg := s.base(sim.FastPass, traffic.Uniform, 1)
		cfg.VCs = vcs
		low := cfg
		low.Rate = 0.02
		zero := sim.RunSynthetic(low)
		rate, thr := sim.SaturationThroughput(cfg, 0.01, 0.4, 6)
		return VCPoint{VCs: vcs, SatRate: rate, SatThr: thr, ZeroLoad: zero.AvgLatency}
	})
}

// VCSensitivityString renders the VC sweep.
func VCSensitivityString(pts []VCPoint) string {
	var b strings.Builder
	b.WriteString("FastPass VC sensitivity (Uniform) — Table II's 1/2/4 VCs\n")
	b.WriteString("vcs   zero-load-lat   sat-rate   sat-throughput\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-5d %13.1f %10.3f %16.3f\n", p.VCs, p.ZeroLoad, p.SatRate, p.SatThr)
	}
	return b.String()
}
