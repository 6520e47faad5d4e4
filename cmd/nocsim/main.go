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
// and fault outcomes included), even in a fresh process or at a
// different -shards count.
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

	"repro/noc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsim: ")

	schemeName := flag.String("scheme", "FastPass", "scheme: FastPass, EscapeVC, SPIN, SWAP, DRAIN, Pitstop, MinBD, TFC")
	patternName := flag.String("pattern", "Uniform", "synthetic pattern: Uniform, Transpose, Shuffle, BitRotation, BitComplement, Hotspot")
	app := flag.String("app", "", "run an application workload instead of synthetic traffic (Radix, Canneal, FFT, FMM, Lu_cb, Streamcluster, Volrend, Barnes)")
	rate := flag.Float64("rate", 0.05, "injection rate in packets/node/cycle (synthetic)")
	size := flag.Int("size", 8, "mesh dimension (size × size)")
	vcs := flag.Int("vcs", 0, "VCs per input buffer (0 = scheme default)")
	seed := flag.Int64("seed", 1, "simulation seed")
	warmup := flag.Int("warmup", 2000, "warmup cycles")
	measure := flag.Int("measure", 5000, "measurement cycles")
	drain := flag.Int("drain", 3000, "drain cycles")
	faultSpec := flag.String("faults", "", "fault-injection plan, e.g. 'linkfail:rate=1e-4,dur=64;corrupt:rate=1e-5;stallconsumer:node=3,at=500,perm'")
	fpHealing := flag.Bool("fp-healing", false, "FastPass: re-derive the lane schedule online after permanent link failures (self-healing)")
	faultScale := flag.Float64("faultscale", 1, "multiplier applied to every rate in the fault plan")
	watchdog := flag.String("watchdog", "on", "invariant watchdogs: on, off, or 'stride=..,deadlock=..,starve=..,leak=..'")
	shards := flag.Int("shards", 1, "spatial shards stepping the mesh in parallel (bit-identical to 1; ignored by MinBD)")
	checkpointPath := flag.String("checkpoint", "", "write the full simulator state to this file every -checkpoint-every cycles (synthetic runs only)")
	checkpointEvery := flag.Int64("checkpoint-every", 0, "cycles between checkpoints (requires -checkpoint)")
	restorePath := flag.String("restore", "", "resume a synthetic run from a checkpoint file; run parameters come from the checkpoint (only -shards, -checkpoint, -checkpoint-every and the telemetry sinks apply on top)")
	telemetryPath := flag.String("telemetry", "", "stream per-window telemetry records to this JSONL file (synthetic runs only)")
	telemetryWindow := flag.Int64("telemetry-window", 1000, "cycles per telemetry window (with -telemetry, -heatmap or -http)")
	heatmapPrefix := flag.String("heatmap", "", "write per-window utilisation grids to <prefix>-nodes.csv and <prefix>-links.csv")
	httpAddr := flag.String("http", "", "serve live telemetry on this address (/metrics, /events, /debug/pprof)")
	progress := flag.Bool("progress", false, "print a single-line progress status to stderr during synthetic runs")
	flag.Parse()

	if *checkpointEvery < 0 {
		rejectf("-checkpoint-every %d must be positive", *checkpointEvery)
	}
	if (*checkpointPath == "") != (*checkpointEvery == 0) {
		rejectf("-checkpoint and -checkpoint-every must be set together")
	}
	if *telemetryWindow <= 0 {
		rejectf("-telemetry-window %d must be positive", *telemetryWindow)
	}
	tf := telemetryFlags{
		path: *telemetryPath, window: *telemetryWindow,
		heatmap: *heatmapPrefix, httpAddr: *httpAddr, progress: *progress,
	}

	if *restorePath != "" {
		runRestored(*restorePath, *shards, *checkpointPath, *checkpointEvery, tf)
		return
	}

	scheme, err := noc.ParseScheme(*schemeName)
	if err != nil {
		rejectf("%v", err)
	}
	if _, err := noc.ParseFaultPlan(*faultSpec); err != nil {
		rejectf("-faults: %v", err)
	}
	if _, _, err := noc.ParseWatchdogSpec(*watchdog); err != nil {
		rejectf("-watchdog: %v", err)
	}
	// Options read 0 as "default": these two are caught here.
	if *size < 2 {
		rejectf("-size %d: need a mesh of at least 2x2", *size)
	}
	if *faultScale == 0 {
		rejectf("-faultscale 0 leaves the fault plan unscaled; for a fault-free run, omit -faults")
	}
	if err := noc.ValidateShards(*shards, (*size)*(*size)); err != nil {
		rejectf("%v", err)
	}
	if *fpHealing && scheme != noc.FastPass {
		rejectf("-fp-healing is a FastPass configuration; it does not apply to %v", scheme)
	}
	opts := noc.Options{
		Scheme: scheme, W: *size, H: *size, VCs: *vcs, Seed: *seed, DrainPeriod: 8192,
		Faults: *faultSpec, FaultScale: *faultScale, Watchdog: *watchdog, Shards: *shards,
		FPHealing: *fpHealing,
	}
	if scheme == noc.MinBD {
		// MinBD's deflection network carries neither the fault injector
		// nor the watchdogs.
		opts.Faults, opts.Watchdog = "", ""
	}
	cfg := noc.SynthConfig{Options: opts, Rate: *rate, Warmup: *warmup, Measure: *measure, Drain: *drain}
	if *app == "" {
		if cfg.Pattern, err = noc.ParsePattern(*patternName); err != nil {
			rejectf("%v", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		rejectf("%v", err)
	}

	if *app != "" {
		a, err := noc.GetApp(*app)
		if err != nil {
			rejectf("%v", err)
		}
		if !scheme.SupportsProtocol() {
			rejectf("-app: scheme %v cannot run protocol traffic", scheme)
		}
		if *checkpointEvery > 0 {
			rejectf("-checkpoint only applies to synthetic runs")
		}
		if tf.enabled() || tf.progress {
			rejectf("-telemetry, -heatmap, -http and -progress only apply to synthetic runs")
		}
		runApp(opts, a)
		return
	}

	cfg.CheckpointEvery, cfg.OnCheckpoint = *checkpointEvery, checkpointWriter(*checkpointPath)
	cleanup := tf.apply(&cfg)
	res := noc.RunSynthetic(cfg)
	cleanup()
	printSynth(res, cfg.Faults != "")
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
// embedded config supplies the run parameters; -shards (when explicitly
// passed), the checkpoint flags and the telemetry sinks are the only
// overrides. The telemetry *window* is part of the recorded config —
// record boundaries must line up with the original run — so asking for
// telemetry on a checkpoint recorded without it (or changing the window)
// is an error, while attaching fresh sinks to a recorded window is the
// expected resume path.
func runRestored(path string, shards int, checkpointPath string, checkpointEvery int64, tf telemetryFlags) {
	blob, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := noc.OpenCheckpoint(blob)
	if err != nil {
		log.Fatal(err)
	}
	shardsSet, windowSet := false, false
	flag.Visit(func(f *flag.Flag) {
		shardsSet = shardsSet || f.Name == "shards"
		windowSet = windowSet || f.Name == "telemetry-window"
	})
	if shardsSet {
		if err := noc.ValidateShards(shards, cfg.W*cfg.H); err != nil {
			rejectf("%v", err)
		}
		cfg.Shards = shards
	}
	if tf.enabled() && cfg.Telemetry.Window == 0 {
		rejectf("checkpoint was recorded without telemetry; -telemetry/-heatmap/-http cannot attach mid-run")
	}
	if windowSet && cfg.Telemetry.Window != 0 && tf.window != cfg.Telemetry.Window {
		rejectf("-telemetry-window %d conflicts with the checkpoint's recorded window %d", tf.window, cfg.Telemetry.Window)
	}
	cfg.CheckpointEvery = checkpointEvery
	cfg.OnCheckpoint = checkpointWriter(checkpointPath)
	cleanup := tf.apply(&cfg)
	res, err := noc.ResumeSynthetic(cfg, blob)
	cleanup()
	if err != nil {
		log.Fatal(err)
	}
	printSynth(res, cfg.Faults != "")
}

// printSynth renders a synthetic result and exits nonzero for aborted
// or saturated runs. hadFaults gates the fault-accounting section (the
// run's Options.Faults spec was non-empty).
func printSynth(res noc.SynthResult, hadFaults bool) {
	fmt.Printf("scheme          %v\n", res.Scheme)
	fmt.Printf("pattern         %v @ %.3f pkts/node/cycle\n", res.Pattern, res.Rate)
	fmt.Printf("avg latency     %.2f cycles\n", res.AvgLatency)
	fmt.Printf("p99 latency     %.0f cycles\n", res.P99Latency)
	fmt.Printf("throughput      %.4f pkts/node/cycle (%.4f flits)\n", res.Throughput, res.FlitThroughput)
	fmt.Printf("delivered       %.1f%% of measured packets (%d samples)\n", 100*res.DeliveredFrac, res.Samples)
	if res.Scheme == noc.FastPass {
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

func runApp(opts noc.Options, app noc.App) {
	res := noc.RunApp(noc.AppConfig{Options: opts, App: app})
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
