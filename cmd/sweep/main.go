// Command sweep measures latency-vs-injection-rate curves (Fig. 7
// style) for one or more schemes and prints them as CSV. Each scheme's
// series is one serial cell: its rates run in order until two
// consecutive points saturate. The schemes' cells share one pool of -j
// workers, so a single-scheme sweep runs at its -j 1 speed whatever -j
// says. The CSV is bit-identical at any -j (see DESIGN.md on the
// determinism contract).
//
// With -faults the runs execute under deterministic fault injection;
// with -fault-scales the command switches to the resilience experiment,
// sweeping the plan's intensity at one injection rate (-rate-min) and
// reporting delivery/stranding/abort accounting per (scheme, scale).
//
// Usage:
//
//	sweep -pattern Transpose -schemes FastPass,EscapeVC,SPIN -size 8
//	sweep -schemes FastPass -rate-min 0.02 -rate-max 0.2 -j 4
//	sweep -schemes FastPass,EscapeVC -faults 'linkfail:rate=2e-3,dur=64' -fault-scales 0,0.5,1
//	sweep -schemes FastPass -telemetry sweep.jsonl -telemetry-window 500
//
// With -telemetry every run's windowed metrics stream is buffered and
// written to one JSONL file in (scheme, rate) order after the sweep —
// byte-identical at any -j, like the CSV.
//
// If the invariant watchdog aborts any latency-sweep point, the CSV
// (with the aborted points as empty cells) is still written, every
// structured report goes to stderr, and the exit code is 1. In
// resilience mode aborts are the measurement — they land in the
// aborted/deadlock CSV columns and do not change the exit code.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	cfg, err := parse(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		log.Print(err)
		os.Exit(2) // a rejected flag, like the flag package's own; 1 is an aborted run
	}

	if len(cfg.scales) > 0 {
		csv, reports := resilienceCSV(cfg)
		fmt.Print(csv)
		for _, r := range reports {
			fmt.Fprintln(os.Stderr, r)
		}
		return
	}

	csv, reports := sweepCSV(cfg)
	fmt.Print(csv)
	if cfg.telemetry != nil {
		if err := cfg.telemetry.writeFile(cfg.telemetryPath); err != nil {
			log.Fatal(err)
		}
	}
	for _, r := range reports {
		fmt.Fprintln(os.Stderr, r)
	}
	if len(reports) > 0 {
		os.Exit(1)
	}
}

// parse turns the command line into a fully-validated sweepConfig, or
// an error that names what to fix (flag.ErrHelp for -h). Every run is
// checked by SynthConfig.Validate, and a resilience experiment by
// CampaignConfig.Validate (which also turns MinBD away); parse itself
// adds only the values Options reads as defaults (-size 0,
// -faultscale 0) and the cross-flag rules: -fault-scales needs -faults
// and excludes -telemetry, -rate-max and -rate-step, and
// -telemetry-window must be positive.
func parse(args []string) (sweepConfig, error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	schemes := fs.String("schemes", "FastPass,EscapeVC,SPIN,SWAP,DRAIN,Pitstop,MinBD,TFC", "comma-separated scheme list")
	patternName := fs.String("pattern", "Uniform", "synthetic pattern")
	size := fs.Int("size", 8, "mesh dimension")
	seed := fs.Int64("seed", 1, "simulation seed")
	rateMin := fs.Float64("rate-min", 0.02, "first injection rate")
	rateMax := fs.Float64("rate-max", 0.30, "last injection rate")
	rateStep := fs.Float64("rate-step", 0.02, "rate increment")
	jobs := fs.Int("j", 0, "parallel workers (0 = one per core, 1 = serial)")
	faultSpec := fs.String("faults", "", "fault-injection plan applied to every run")
	faultScale := fs.Float64("faultscale", 1, "fault-plan rate multiplier (latency sweeps)")
	faultScales := fs.String("fault-scales", "", "comma-separated intensity multipliers; switches to the resilience experiment (requires -faults)")
	watchdog := fs.String("watchdog", "on", "invariant watchdogs: on, off, or tuning clauses")
	telemetryPath := fs.String("telemetry", "", "write every run's windowed telemetry records to this JSONL file, in (scheme, rate) order regardless of -j")
	telemetryWindow := fs.Int64("telemetry-window", 1000, "cycles per telemetry window (with -telemetry)")
	if err := fs.Parse(args); err != nil {
		return sweepConfig{}, err
	}

	rateGrid := false
	fs.Visit(func(f *flag.Flag) { rateGrid = rateGrid || f.Name == "rate-max" || f.Name == "rate-step" })
	parsed, err := parseSchemes(*schemes)
	if err != nil {
		return sweepConfig{}, err
	}
	pattern, err := traffic.ParsePattern(*patternName)
	if err != nil {
		return sweepConfig{}, err
	}
	rates, err := buildRateGrid(*rateMin, *rateMax, *rateStep)
	if err != nil {
		return sweepConfig{}, err
	}
	switch {
	case *jobs < 0:
		return sweepConfig{}, fmt.Errorf("-j %d: give a worker count, or 0 for one per core", *jobs)
	case *size == 0:
		return sweepConfig{}, fmt.Errorf("-size 0: need a mesh of at least 2x2")
	case *faultScale == 0:
		return sweepConfig{}, fmt.Errorf("-faultscale 0 leaves the fault plan unscaled; for a fault-free sweep, omit -faults")
	case *telemetryWindow <= 0:
		return sweepConfig{}, fmt.Errorf("-telemetry-window %d must be a positive cycle count", *telemetryWindow)
	}
	cfg := sweepConfig{
		schemes: parsed, pattern: pattern,
		size: *size, seed: *seed, rates: rates, jobs: *jobs,
		faults: *faultSpec, faultScale: *faultScale, watchdog: *watchdog,
		telemetryPath: *telemetryPath,
	}
	for _, s := range cfg.schemes {
		point := cfg.base()
		point.Scheme, point.Rate = s, rates[len(rates)-1]
		if err := point.Validate(); err != nil {
			return sweepConfig{}, err
		}
	}
	if *faultScales != "" {
		if *faultSpec == "" {
			return sweepConfig{}, fmt.Errorf("-fault-scales sweeps a fault plan's intensity; pass the plan with -faults")
		}
		if rateGrid {
			return sweepConfig{}, fmt.Errorf("-fault-scales runs every cell at -rate-min; drop -rate-max and -rate-step")
		}
		if *telemetryPath != "" {
			return sweepConfig{}, fmt.Errorf("-telemetry does not apply to the resilience experiment; drop it or -fault-scales")
		}
		if cfg.scales, err = campaign.ParseScales(*faultScales); err != nil {
			return sweepConfig{}, fmt.Errorf("-fault-scales: %v", err)
		}
		if err := cfg.resilience().Validate(); err != nil {
			return sweepConfig{}, err
		}
	}
	if *telemetryPath != "" {
		cfg.telemetry = &telemetrySink{window: *telemetryWindow, bufs: make([]bytes.Buffer, len(parsed))}
	}
	return cfg, nil
}

// sweepConfig is a fully-validated sweep description: every field has
// been parsed and checked, so sweepCSV cannot fail.
type sweepConfig struct {
	schemes []sim.Scheme // duplicate-free
	pattern traffic.Pattern
	size    int
	seed    int64
	rates   []float64
	jobs    int
	// Warmup/Measure/Drain override the RunSynthetic defaults when
	// non-zero (tests shrink them; the CLI keeps the paper windows).
	warmup, measure, drain int
	// faults/faultScale/watchdog ride into every run's Options; scales,
	// when non-empty, selects the resilience experiment.
	faults     string
	faultScale float64
	watchdog   string
	scales     []float64
	// telemetry, when non-nil, buffers every run's JSONL stream for
	// deterministic ordered output after the sweep, to telemetryPath.
	telemetry     *telemetrySink
	telemetryPath string
}

// parseSchemes splits a comma-separated scheme list, trimming each
// name; a repeated scheme is rejected rather than silently overwritten.
func parseSchemes(list string) ([]sim.Scheme, error) {
	var schemes []sim.Scheme
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, fmt.Errorf("empty scheme name in %q", list)
		}
		scheme, err := sim.ParseScheme(name)
		if err != nil {
			return nil, err
		}
		if slices.Contains(schemes, scheme) {
			return nil, fmt.Errorf("duplicate scheme %q in %q", name, list)
		}
		schemes = append(schemes, scheme)
	}
	return schemes, nil
}

// buildRateGrid expands [min, max] by step (with a tolerance so the
// endpoint survives float accumulation), rounding each rate to 0.001.
// A non-positive step or an infinite max would never end the loop, a
// NaN would give an empty or one-point grid, and a step fine enough to
// round two rates to one value would give two points one telemetry
// stream; all are rejected before the grid is expanded.
func buildRateGrid(min, max, step float64) ([]float64, error) {
	if !(step > 0) || math.IsInf(step, 1) {
		return nil, fmt.Errorf("rate step %v must be positive and finite", step)
	}
	if !(min > 0 && min <= max && max <= 1) {
		return nil, fmt.Errorf("rate range [%v, %v] must be positive, ordered and inside [0, 1]", min, max)
	}
	var rates []float64
	for r := min; r <= max+1e-9; r += step {
		rate := math.Round(r*1000) / 1000
		if n := len(rates); n > 0 && rates[n-1] == rate {
			return nil, fmt.Errorf("-rate-step %v repeats rate %v: rates are rounded to 0.001", step, rate)
		}
		rates = append(rates, rate)
	}
	return rates, nil
}

// base assembles the SynthConfig every run perturbs: the sweep sets
// Scheme and Rate per point, the resilience grid its cells.
func (cfg sweepConfig) base() sim.SynthConfig {
	return sim.SynthConfig{
		Options: sim.Options{W: cfg.size, H: cfg.size, Seed: cfg.seed, DrainPeriod: 8192,
			Faults: cfg.faults, FaultScale: cfg.faultScale, Watchdog: cfg.watchdog},
		Pattern: cfg.pattern,
		Warmup:  cfg.warmup, Measure: cfg.measure, Drain: cfg.drain,
	}
}

// resilience is the -fault-scales experiment as a campaign grid: one
// static variant per scheme, at the one seed and the first rate.
func (cfg sweepConfig) resilience() campaign.Config {
	c := campaign.Config{Base: cfg.base(), Scales: cfg.scales, Seeds: []int64{cfg.seed}, Jobs: cfg.jobs}
	c.Base.Rate = cfg.rates[0]
	for _, s := range cfg.schemes {
		c.Variants = append(c.Variants, campaign.Variant{Scheme: s})
	}
	return c
}

// sweepCSV runs every scheme's sweep, one serial cell per scheme, and
// renders the CSV as Fig. 7's (exp.Fig7Result.CSV): saturated points
// are empty cells. The second return value carries one structured
// watchdog report per aborted point — the CSV is still complete
// (aborted points are empty cells), so callers can write the partial
// data and still exit nonzero.
func sweepCSV(cfg sweepConfig) (string, []string) {
	series := parallel.Map(cfg.jobs, cfg.schemes, func(scheme sim.Scheme) []sim.SynthResult {
		base := cfg.base()
		base.Scheme = scheme
		if t := cfg.telemetry; t != nil { // the series' runs stream, in rate order, into its buffer
			base.Telemetry.Window, base.Telemetry.JSONL = t.window, &t.bufs[slices.Index(cfg.schemes, scheme)]
		}
		return sim.SweepLatency(base, cfg.rates)
	})

	var reports []string
	for i, r := range cfg.rates {
		for j, scheme := range cfg.schemes {
			if p := series[j][i]; p.Aborted {
				reports = append(reports, fmt.Sprintf("sweep: %s @ %.3f aborted at cycle %d:\n%s",
					scheme, r, p.AbortCycle, p.AbortReport))
			}
		}
	}
	return exp.NewFig7Result(cfg.pattern, cfg.rates, cfg.schemes, series).CSV(), reports
}

// resilienceCSV runs the fault-intensity sweep, one campaign cell per
// (scheme, scale), and renders one row per cell with the full
// robustness accounting. Reports carry the structured watchdog
// diagnostics of every aborted point.
func resilienceCSV(cfg sweepConfig) (string, []string) {
	c := cfg.resilience()
	grid := campaign.Grid(c)
	res := parallel.Map(c.Jobs, grid, func(p campaign.Point) sim.SynthResult { return sim.RunSynthetic(c.Cell(p)) })
	var b strings.Builder
	var reports []string
	b.WriteString("scheme,scale,created,delivered,stranded,corrupted_delivered,credit_leaks,link_fails,port_stalls,consumer_stalls,flits_corrupted,credits_lost,aborted,deadlock,abort_cycle\n")
	for i, r := range res {
		scale := grid[i].Scale
		abortCycle := ""
		if r.Aborted {
			abortCycle = fmt.Sprintf("%d", r.AbortCycle)
			reports = append(reports, fmt.Sprintf("sweep: %v @ scale %g aborted at cycle %d:\n%s",
				r.Scheme, scale, r.AbortCycle, r.AbortReport))
		}
		fmt.Fprintf(&b, "%v,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t,%t,%s\n",
			r.Scheme, scale, r.Created, r.Delivered, r.Stranded, r.CorruptedDelivered,
			r.CreditLeaks, r.Faults.LinkFails, r.Faults.PortStalls, r.Faults.ConsumerStalls,
			r.Faults.FlitsCorrupted, r.Faults.CreditsLost, r.Aborted, r.DeadlockDetected, abortCycle)
	}
	return b.String(), reports
}
