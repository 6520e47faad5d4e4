// Command nocsim runs a single NoC simulation and prints its
// measurements.
//
// Usage:
//
//	nocsim -scheme FastPass -pattern Uniform -rate 0.05 -size 8 -vcs 4
//	nocsim -scheme EscapeVC -app Canneal -size 8
//	nocsim -scheme FastPass -faults 'linkfail:rate=1e-4,dur=64;corrupt:rate=1e-5' -rate 0.05
//	nocsim -scheme FastPass -rate 0.05 -checkpoint run.ckpt -checkpoint-every 2000
//	nocsim -restore run.ckpt
//	nocsim -scheme FastPass -rate 0.05 -telemetry run.jsonl -telemetry-window 500 -heatmap run
//	nocsim -scheme FastPass -rate 0.05 -measure 200000 -http :8080 -progress
//
// A checkpointed synthetic run can be resumed with -restore; the
// continuation is bit-identical to the uninterrupted run (stats, trace
// and fault outcomes included), even in a fresh process.
//
// Exit codes: 0 clean, 1 a run that could not start or finish (a
// missing file, a refused checkpoint), 2 a rejected flag or a saturated
// or timed-out run, 3 invariant watchdog abort (the structured
// deadlock/starvation report goes to stderr).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsim: ")
	cfg, err := parse(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		rejectf("%v", err)
	}
	switch {
	case cfg.restore != "":
		runRestored(cfg)
	case cfg.app.Name != "":
		runApp(cfg.run.Options, cfg.app)
	default:
		cfg.run.OnCheckpoint = checkpointWriter(cfg.checkpoint)
		cleanup := cfg.tf.apply(&cfg.run)
		res := sim.RunSynthetic(cfg.run)
		cleanup()
		printSynth(res, cfg.run.Faults != "")
	}
}

// config is a validated command line: a synthetic run, an application
// run (app named) or a resumed checkpoint (restore set).
type config struct {
	run        sim.SynthConfig
	app        workload.App
	checkpoint string // -checkpoint: file every checkpoint replaces
	tf         telemetryFlags

	// -restore takes its run from the checkpoint; only the checkpoint
	// flags and the telemetry sinks apply.
	restore   string
	windowSet bool
}

// parse turns the command line into a validated config, or an error
// that names what to fix (flag.ErrHelp for -h). SynthConfig.Validate or
// AppConfig.Validate checks the run; parse itself adds only the values
// Options reads as defaults (-size 0, -faultscale 0) and the cross-flag
// rules.
func parse(args []string) (config, error) {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	schemeName := fs.String("scheme", "FastPass", "scheme: FastPass, EscapeVC, SPIN, SWAP, DRAIN, Pitstop, MinBD, TFC")
	patternName := fs.String("pattern", "Uniform", "synthetic pattern: Uniform, Transpose, Shuffle, BitRotation, BitComplement, Hotspot")
	app := fs.String("app", "", "run an application workload instead of synthetic traffic (Radix, Canneal, FFT, FMM, Lu_cb, Streamcluster, Volrend, Barnes)")
	rate := fs.Float64("rate", 0.05, "injection rate in packets/node/cycle (synthetic)")
	size := fs.Int("size", 8, "mesh dimension (size × size)")
	vcs := fs.Int("vcs", 0, "VCs per input buffer (0 = scheme default)")
	seed := fs.Int64("seed", 1, "simulation seed")
	warmup := fs.Int("warmup", 2000, "warmup cycles")
	measure := fs.Int("measure", 5000, "measurement cycles")
	drain := fs.Int("drain", 3000, "drain cycles")
	faultSpec := fs.String("faults", "", "fault-injection plan, e.g. 'linkfail:rate=1e-4,dur=64;corrupt:rate=1e-5;stallconsumer:node=3,at=500,perm'")
	fpHealing := fs.Bool("fp-healing", false, "FastPass: re-derive the lane schedule online after permanent link failures (self-healing)")
	faultScale := fs.Float64("faultscale", 1, "multiplier applied to every rate in the fault plan")
	watchdog := fs.String("watchdog", "on", "invariant watchdogs: on, off, or 'stride=..,deadlock=..,starve=..,leak=..'")
	checkpointPath := fs.String("checkpoint", "", "write the full simulator state to this file every -checkpoint-every cycles (synthetic runs only)")
	checkpointEvery := fs.Int64("checkpoint-every", 0, "cycles between checkpoints (requires -checkpoint)")
	restorePath := fs.String("restore", "", "resume a synthetic run from a checkpoint file; run parameters come from the checkpoint (only -checkpoint, -checkpoint-every and the telemetry sinks apply on top)")
	telemetryPath := fs.String("telemetry", "", "stream per-window telemetry records to this JSONL file (synthetic runs only)")
	telemetryWindow := fs.Int64("telemetry-window", 1000, "cycles per telemetry window (with -telemetry, -heatmap or -http)")
	heatmapPrefix := fs.String("heatmap", "", "write per-window utilisation grids to <prefix>-nodes.csv and <prefix>-links.csv")
	httpAddr := fs.String("http", "", "serve live telemetry on this address (/metrics, /events, /debug/pprof)")
	progress := fs.Bool("progress", false, "print a single-line progress status to stderr during synthetic runs")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}

	if (*checkpointPath == "") != (*checkpointEvery == 0) {
		return config{}, fmt.Errorf("-checkpoint and -checkpoint-every must be set together")
	}
	if *telemetryWindow <= 0 {
		return config{}, fmt.Errorf("-telemetry-window %d must be positive", *telemetryWindow)
	}
	cfg := config{
		checkpoint: *checkpointPath,
		tf: telemetryFlags{
			path: *telemetryPath, window: *telemetryWindow,
			heatmap: *heatmapPrefix, httpAddr: *httpAddr, progress: *progress,
		},
		restore: *restorePath,
	}
	fs.Visit(func(f *flag.Flag) {
		cfg.windowSet = cfg.windowSet || f.Name == "telemetry-window"
	})
	if cfg.restore != "" {
		cfg.run.CheckpointEvery = *checkpointEvery // the override
		return cfg, nil
	}

	scheme, err := sim.ParseScheme(*schemeName)
	if err != nil {
		return config{}, err
	}
	// Options read 0 as "default": these two are caught here.
	if *size == 0 {
		return config{}, fmt.Errorf("-size 0: need a mesh of at least 2x2")
	}
	if *faultScale == 0 {
		return config{}, fmt.Errorf("-faultscale 0 leaves the fault plan unscaled; for a fault-free run, omit -faults")
	}
	cfg.run = sim.SynthConfig{
		Options: sim.Options{
			Scheme: scheme, W: *size, H: *size, VCs: *vcs, Seed: *seed, DrainPeriod: 8192,
			Faults: *faultSpec, FaultScale: *faultScale, Watchdog: *watchdog,
			FPHealing: *fpHealing,
		},
		Rate: *rate, Warmup: *warmup, Measure: *measure, Drain: *drain,
		CheckpointEvery: *checkpointEvery,
	}
	if *app != "" {
		if cfg.app, err = workload.Get(*app); err != nil {
			return config{}, err
		}
		switch {
		case *checkpointEvery > 0:
			return config{}, fmt.Errorf("-checkpoint only applies to synthetic runs")
		case cfg.tf.enabled() || cfg.tf.progress:
			return config{}, fmt.Errorf("-telemetry, -heatmap, -http and -progress only apply to synthetic runs")
		}
		return cfg, sim.AppConfig{Options: cfg.run.Options, App: cfg.app}.Validate()
	}
	if cfg.run.Pattern, err = traffic.ParsePattern(*patternName); err != nil {
		return config{}, err
	}
	if err := cfg.run.Validate(); err != nil {
		return config{}, err
	}
	if scheme == sim.MinBD {
		// MinBD's deflection network carries neither the fault injector
		// nor the watchdogs: run and print it without them.
		cfg.run.Faults, cfg.run.Watchdog = "", ""
	}
	return cfg, nil
}

// rejectf reports a rejected flag and exits 2, like the flag package's
// own rejections; 1 stays for a run that could not start or finish.
func rejectf(format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(2)
}

// checkpointWriter returns the OnCheckpoint hook: each checkpoint
// atomically replaces the file (write-then-rename), so a crash mid-write
// never leaves a torn blob behind.
func checkpointWriter(path string) func(int64, []byte) {
	if path == "" {
		return nil
	}
	return func(cycle int64, blob []byte) {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, blob, 0o644); err != nil {
			log.Fatalf("checkpoint at cycle %d: %v", cycle, err)
		}
		if err := os.Rename(tmp, path); err != nil {
			log.Fatalf("checkpoint at cycle %d: %v", cycle, err)
		}
	}
}

// runRestored resumes a synthetic run from a checkpoint file. The
// embedded config supplies the run parameters; the checkpoint flags and
// the telemetry sinks are the only overrides. The telemetry *window* is part of the recorded config —
// record boundaries must line up with the original run — so asking for
// telemetry on a checkpoint recorded without it (or changing the window)
// is an error, while attaching fresh sinks to a recorded window is the
// expected resume path.
func runRestored(c config) {
	blob, err := os.ReadFile(c.restore)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := sim.OpenCheckpoint(blob)
	if err != nil {
		log.Fatal(err)
	}
	cfg.CheckpointEvery = c.run.CheckpointEvery
	if err := cfg.Validate(); err != nil {
		rejectf("%v", err)
	}
	if c.tf.enabled() && cfg.Telemetry.Window == 0 {
		rejectf("checkpoint was recorded without telemetry; -telemetry/-heatmap/-http cannot attach mid-run")
	}
	if c.windowSet && cfg.Telemetry.Window != 0 && c.tf.window != cfg.Telemetry.Window {
		rejectf("-telemetry-window %d conflicts with the checkpoint's recorded window %d", c.tf.window, cfg.Telemetry.Window)
	}
	cfg.OnCheckpoint = checkpointWriter(c.checkpoint)
	cleanup := c.tf.apply(&cfg)
	res, err := sim.ResumeSynthetic(cfg, blob)
	cleanup()
	if err != nil {
		log.Fatal(err)
	}
	printSynth(res, cfg.Faults != "")
}

// printSynth renders a synthetic result and exits nonzero for aborted
// or saturated runs. hadFaults gates the fault-accounting section (the
// run's Options.Faults spec was non-empty).
func printSynth(res sim.SynthResult, hadFaults bool) {
	fmt.Printf("scheme          %v\n", res.Scheme)
	fmt.Printf("pattern         %v @ %.3f pkts/node/cycle\n", res.Pattern, res.Rate)
	fmt.Printf("avg latency     %.2f cycles\n", res.AvgLatency)
	fmt.Printf("p99 latency     %.0f cycles\n", res.P99Latency)
	fmt.Printf("throughput      %.4f pkts/node/cycle (%.4f flits)\n", res.Throughput, res.FlitThroughput)
	fmt.Printf("delivered       %.1f%% of measured packets (%d samples)\n", 100*res.DeliveredFrac, res.Samples)
	if res.Scheme == sim.FastPass {
		fmt.Printf("breakdown       regular %.3f / fastpass %.3f / dropped %.4f\n",
			res.RegularFrac, res.FastFrac, res.DroppedFrac)
		fmt.Printf("promotions      %d (drops %d)\n", res.Promoted, res.Drops)
		if res.Heals > 0 || res.HealFails > 0 {
			fmt.Printf("lane heals      %d re-derivations (%d failed: fabric disconnected)\n",
				res.Heals, res.HealFails)
		}
	}
	if hadFaults {
		fmt.Printf("fault totals    %d link fails, %d port stalls, %d consumer stalls, %d credits lost\n",
			res.Faults.LinkFails, res.Faults.PortStalls, res.Faults.ConsumerStalls, res.Faults.CreditsLost)
		fmt.Printf("corruption      %d flits corrupted, %d detected at delivery, %d packets flagged\n",
			res.Faults.FlitsCorrupted, res.Faults.CorruptionsDetected, res.CorruptedDelivered)
		fmt.Printf("accounting      %d created = %d delivered + %d stranded (credit leaks %d)\n",
			res.Created, res.Delivered, res.Stranded, res.CreditLeaks)
	}
	if res.Aborted {
		fmt.Printf("state           ABORTED by invariant watchdog at cycle %d\n", res.AbortCycle)
		fmt.Fprintln(os.Stderr, res.AbortReport)
		os.Exit(3)
	}
	if res.Stranded > 0 && !hadFaults {
		// Near saturation a finite drain window legitimately leaves a
		// backlog, so this is informational; actual packet loss is the
		// conservation watchdog's job and aborts above.
		fmt.Printf("state           NON-QUIESCENT: %d packets still in flight after drain\n", res.Stranded)
	}
	if res.Saturated {
		fmt.Println("state           SATURATED")
		os.Exit(2)
	}
}

func runApp(opts sim.Options, app workload.App) {
	res := sim.RunApp(sim.AppConfig{Options: opts, App: app})
	fmt.Printf("scheme          %v\n", opts.Scheme)
	fmt.Printf("application     %s (quota %d txns)\n", app.Name, app.WorkQuota)
	fmt.Printf("exec time       %d cycles (timeout=%v)\n", res.ExecTime, res.Timeout)
	fmt.Printf("avg latency     %.2f cycles\n", res.AvgLatency)
	fmt.Printf("p99 latency     %.0f cycles\n", res.P99Latency)
	fmt.Printf("transactions    %d completed / %d issued (stalls %d)\n", res.Completed, res.Issued, res.Stalled)
	if res.Aborted {
		fmt.Printf("state           ABORTED by invariant watchdog at cycle %d\n", res.AbortCycle)
		fmt.Fprintln(os.Stderr, res.AbortReport)
		os.Exit(3)
	}
	if res.Timeout {
		fmt.Println("state           TIMEOUT: work quota not completed")
		os.Exit(2)
	}
}
