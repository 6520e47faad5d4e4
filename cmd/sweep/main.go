// Command sweep measures latency-vs-injection-rate curves (Fig. 7
// style) for one or more schemes and prints them as CSV. Schemes run in
// parallel, and each scheme's rate grid fans out too; with -shards each
// simulation additionally steps its mesh with K spatial shards. The CSV
// is bit-identical at any -j and any -shards (see DESIGN.md on the
// determinism contract).
//
// With -faults the runs execute under deterministic fault injection;
// with -fault-scales the command switches to the resilience experiment,
// sweeping the plan's intensity instead of the injection rate and
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
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/parallel"
	"repro/noc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	schemes := flag.String("schemes", "FastPass,EscapeVC,SPIN,SWAP,DRAIN,Pitstop,MinBD,TFC", "comma-separated scheme list")
	patternName := flag.String("pattern", "Uniform", "synthetic pattern")
	size := flag.Int("size", 8, "mesh dimension")
	seed := flag.Int64("seed", 1, "simulation seed")
	rateMin := flag.Float64("rate-min", 0.02, "first injection rate")
	rateMax := flag.Float64("rate-max", 0.30, "last injection rate")
	rateStep := flag.Float64("rate-step", 0.02, "rate increment")
	jobs := flag.Int("j", 0, "parallel workers (0 = one per core, 1 = serial)")
	faultSpec := flag.String("faults", "", "fault-injection plan applied to every run")
	faultScale := flag.Float64("faultscale", 1, "fault-plan rate multiplier (latency sweeps)")
	faultScales := flag.String("fault-scales", "", "comma-separated intensity multipliers; switches to the resilience experiment (requires -faults)")
	watchdog := flag.String("watchdog", "on", "invariant watchdogs: on, off, or tuning clauses")
	shards := flag.Int("shards", 1, "spatial shards per simulation (bit-identical to 1; ignored by MinBD); composes with -j across runs")
	telemetryPath := flag.String("telemetry", "", "write every run's windowed telemetry records to this JSONL file, in (scheme, rate) order regardless of -j")
	telemetryWindow := flag.Int64("telemetry-window", 1000, "cycles per telemetry window (with -telemetry)")
	flag.Parse()

	cfg, err := validateFlags(flagValues{
		schemes: *schemes, pattern: *patternName, size: *size, seed: *seed,
		rateMin: *rateMin, rateMax: *rateMax, rateStep: *rateStep, jobs: *jobs,
		faults: *faultSpec, faultScale: *faultScale, faultScales: *faultScales,
		watchdog: *watchdog, shards: *shards,
		telemetryPath: *telemetryPath, telemetryWindow: *telemetryWindow,
	})
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
		if err := cfg.telemetry.writeFile(*telemetryPath); err != nil {
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

// flagValues captures every raw flag exactly as the user typed it, so
// validation is one testable function instead of checks scattered
// through main.
type flagValues struct {
	schemes, pattern           string
	size                       int
	seed                       int64
	rateMin, rateMax, rateStep float64
	jobs                       int
	faults                     string
	faultScale                 float64
	faultScales                string
	watchdog                   string
	shards                     int
	telemetryPath              string
	telemetryWindow            int64
}

// validateFlags turns raw flag values into a fully-validated
// sweepConfig, or an error that names the offending flag and what to
// do about it. Every cross-flag rule lives here: -fault-scales needs
// -faults and excludes both -telemetry and MinBD; -shards must divide
// sensibly into the mesh; -telemetry-window must be positive.
func validateFlags(fv flagValues) (sweepConfig, error) {
	cfg, err := buildConfig(fv.schemes, fv.pattern, fv.size, fv.seed, fv.rateMin, fv.rateMax, fv.rateStep, fv.jobs)
	if err != nil {
		return sweepConfig{}, err
	}
	if _, err := noc.ParseFaultPlan(fv.faults); err != nil {
		return sweepConfig{}, fmt.Errorf("-faults: %v", err)
	}
	if _, _, err := noc.ParseWatchdogSpec(fv.watchdog); err != nil {
		return sweepConfig{}, fmt.Errorf("-watchdog: %v", err)
	}
	if !(fv.faultScale > 0) {
		return sweepConfig{}, fmt.Errorf("-faultscale %v must be positive (0 would leave the plan unscaled); for a fault-free sweep, omit -faults", fv.faultScale)
	}
	cfg.faults, cfg.faultScale, cfg.watchdog = fv.faults, fv.faultScale, fv.watchdog
	if err := noc.ValidateShards(fv.shards, fv.size*fv.size); err != nil {
		return sweepConfig{}, fmt.Errorf("-shards: %v", err)
	}
	cfg.shards = fv.shards
	if fv.telemetryWindow <= 0 {
		return sweepConfig{}, fmt.Errorf("-telemetry-window %d must be a positive cycle count", fv.telemetryWindow)
	}
	if fv.faultScales != "" {
		if fv.faults == "" {
			return sweepConfig{}, fmt.Errorf("-fault-scales sweeps a fault plan's intensity; pass the plan with -faults")
		}
		if fv.telemetryPath != "" {
			return sweepConfig{}, fmt.Errorf("-telemetry does not apply to the resilience experiment; drop it or -fault-scales")
		}
		scales, err := parseScales(fv.faultScales)
		if err != nil {
			return sweepConfig{}, fmt.Errorf("-fault-scales: %v", err)
		}
		for _, s := range cfg.schemes {
			if s == noc.MinBD {
				return sweepConfig{}, fmt.Errorf("the resilience experiment does not support MinBD (no links, credits or NICs to degrade); drop it from -schemes")
			}
		}
		cfg.scales = scales
	}
	if fv.telemetryPath != "" {
		cfg.telemetry = newTelemetrySink(cfg, fv.telemetryWindow)
	}
	return cfg, nil
}

// parseScales parses the -fault-scales list (non-negative, 0 = the
// fault-free control point).
func parseScales(list string) ([]float64, error) {
	var scales []float64
	for _, raw := range strings.Split(list, ",") {
		s, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil || s < 0 {
			return nil, fmt.Errorf("fault scale %q must be a non-negative number", raw)
		}
		scales = append(scales, s)
	}
	return scales, nil
}

// sweepConfig is a fully-validated sweep description: every field has
// been parsed and checked, so sweepCSV cannot fail.
type sweepConfig struct {
	names   []string // trimmed, duplicate-free, parallel to schemes
	schemes []noc.Scheme
	pattern noc.Pattern
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
	// shards is the intra-sim spatial shard count each run steps with;
	// bit-identical to 1 by contract, so it never perturbs the CSV.
	shards int
	// telemetry, when non-nil, buffers every run's JSONL stream for
	// deterministic ordered output after the sweep.
	telemetry *telemetrySink
}

// buildConfig turns raw flag values into a validated sweepConfig.
func buildConfig(schemeList, patternName string, size int, seed int64, rateMin, rateMax, rateStep float64, jobs int) (sweepConfig, error) {
	names, parsed, err := parseSchemes(schemeList)
	if err != nil {
		return sweepConfig{}, err
	}
	pattern, err := noc.ParsePattern(patternName)
	if err != nil {
		return sweepConfig{}, err
	}
	rates, err := buildRateGrid(rateMin, rateMax, rateStep)
	if err != nil {
		return sweepConfig{}, err
	}
	if jobs < 0 {
		return sweepConfig{}, fmt.Errorf("-j %d: give a worker count, or 0 for one per core", jobs)
	}
	if size <= 0 {
		return sweepConfig{}, fmt.Errorf("mesh dimension %d must be positive", size)
	}
	for _, s := range parsed {
		point := noc.SynthConfig{Options: noc.Options{Scheme: s, W: size, H: size}, Pattern: pattern, Rate: rates[len(rates)-1]}
		if err := point.Validate(); err != nil {
			return sweepConfig{}, err
		}
	}
	return sweepConfig{
		names: names, schemes: parsed, pattern: pattern,
		size: size, seed: seed, rates: rates, jobs: jobs,
	}, nil
}

// parseSchemes splits a comma-separated scheme list, trimming each name
// once so "FastPass, SPIN" keys its series (and CSV column) as "SPIN",
// not " SPIN". Duplicates are rejected rather than silently overwritten.
func parseSchemes(list string) ([]string, []noc.Scheme, error) {
	var (
		names   []string
		schemes []noc.Scheme
		seen    = map[string]bool{}
	)
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			return nil, nil, fmt.Errorf("empty scheme name in %q", list)
		}
		if seen[name] {
			return nil, nil, fmt.Errorf("duplicate scheme %q in %q", name, list)
		}
		seen[name] = true
		scheme, err := noc.ParseScheme(name)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, name)
		schemes = append(schemes, scheme)
	}
	return names, schemes, nil
}

// buildRateGrid expands [min, max] by step (with a tolerance so the
// endpoint survives float accumulation), rounding each rate to 0.001.
// A non-positive step used to hang the CLI in an infinite loop, and a
// step fine enough to round two rates to one value would give two
// points one telemetry stream; both are rejected here instead.
func buildRateGrid(min, max, step float64) ([]float64, error) {
	if step <= 0 {
		return nil, fmt.Errorf("rate step %v must be positive", step)
	}
	if min <= 0 || max < min {
		return nil, fmt.Errorf("rate range [%v, %v] must be positive and ordered", min, max)
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

// baseConfig assembles the per-scheme SynthConfig a sweep perturbs.
// MinBD silently runs without faults or watchdogs (its deflection
// network supports neither).
func (cfg sweepConfig) baseConfig(scheme noc.Scheme) noc.SynthConfig {
	base := noc.SynthConfig{
		Options: noc.Options{Scheme: scheme, W: cfg.size, H: cfg.size, Seed: cfg.seed, DrainPeriod: 8192,
			Faults: cfg.faults, FaultScale: cfg.faultScale, Watchdog: cfg.watchdog, Shards: cfg.shards},
		Pattern: cfg.pattern,
		Warmup:  cfg.warmup, Measure: cfg.measure, Drain: cfg.drain,
	}
	if scheme == noc.MinBD {
		base.Faults, base.Watchdog = "", ""
	}
	return base
}

// sweepCSV runs every scheme's sweep (in parallel, each sweep itself
// parallel over rates) and renders the CSV; saturated points are empty
// cells. The second return value carries one structured watchdog report
// per aborted point — the CSV is still complete (aborted points are
// empty cells), so callers can write the partial data and still exit
// nonzero.
func sweepCSV(cfg sweepConfig) (string, []string) {
	idxs := make([]int, len(cfg.schemes))
	for j := range idxs {
		idxs[j] = j
	}
	series := parallel.Map(cfg.jobs, idxs, func(j int) []noc.SynthResult {
		base := cfg.baseConfig(cfg.schemes[j])
		if cfg.telemetry != nil {
			cfg.telemetry.instrument(j, &base)
		}
		return noc.SweepLatencyJobs(base, cfg.rates, cfg.jobs)
	})
	if cfg.telemetry != nil {
		for j := range series {
			cfg.telemetry.setCutoff(j, noc.PadCutoff(series[j]))
		}
	}

	var b strings.Builder
	var reports []string
	b.WriteString("rate")
	for _, name := range cfg.names {
		b.WriteString("," + name)
	}
	b.WriteByte('\n')
	for i, r := range cfg.rates {
		fmt.Fprintf(&b, "%.3f", r)
		for j := range cfg.names {
			p := series[j][i]
			if p.Saturated {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%.2f", p.AvgLatency)
			}
			if p.Aborted {
				reports = append(reports, fmt.Sprintf("sweep: %s @ %.3f aborted at cycle %d:\n%s",
					cfg.names[j], r, p.AbortCycle, p.AbortReport))
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), reports
}

// resilienceCSV runs the fault-intensity sweep and renders one row per
// (scheme, scale) with the full robustness accounting. Reports carry
// the structured watchdog diagnostics of every aborted point.
func resilienceCSV(cfg sweepConfig) (string, []string) {
	pts := noc.RunResilience(noc.ResilienceConfig{
		Base:    cfg.baseConfig(cfg.schemes[0]),
		Scales:  cfg.scales,
		Schemes: cfg.schemes,
		Jobs:    cfg.jobs,
	})
	var b strings.Builder
	var reports []string
	b.WriteString("scheme,scale,created,delivered,stranded,corrupted_delivered,credit_leaks,link_fails,port_stalls,consumer_stalls,flits_corrupted,credits_lost,aborted,deadlock,abort_cycle\n")
	for _, p := range pts {
		abortCycle := ""
		if p.Aborted {
			abortCycle = fmt.Sprintf("%d", p.AbortCycle)
			reports = append(reports, fmt.Sprintf("sweep: %v @ scale %g aborted at cycle %d:\n%s",
				p.Scheme, p.Scale, p.AbortCycle, p.AbortReport))
		}
		fmt.Fprintf(&b, "%v,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t,%t,%s\n",
			p.Scheme, p.Scale, p.Created, p.Delivered, p.Stranded, p.CorruptedDelivered,
			p.CreditLeaks, p.Faults.LinkFails, p.Faults.PortStalls, p.Faults.ConsumerStalls,
			p.Faults.FlitsCorrupted, p.Faults.CreditsLost, p.Aborted, p.DeadlockDetected, abortCycle)
	}
	return b.String(), reports
}
