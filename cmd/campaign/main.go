// Command campaign runs a Monte Carlo reliability campaign: one fault
// plan replayed over a (variant × fault-scale × seed) grid, aggregated
// into per-variant degradation curves — delivered-fraction percentiles,
// watchdog-trip and MTTF-to-deadlock statistics. The FastPass-static /
// FastPass-healing variant pair is the self-healing experiment: the
// same seeded silicon failures, with and without online lane
// re-derivation.
//
// Usage:
//
//	campaign -faults 'linkfail:rate=2e-4,dur=64,perm' -runs 50 -scales 0,0.5,1
//	campaign -variants FastPass-static,FastPass-healing,EscapeVC \
//	    -faults 'linkfail:link=12,at=5000,perm' -runs 100 \
//	    -journal camp.jsonl -out curves.csv -j 8
//	campaign ... -journal camp.jsonl -resume        # continue after an interrupt
//	campaign ... -obs :9090                         # live progress endpoint
//
// The curve CSV goes to -out (stdout when unset). With -journal every
// cell's record is appended to a JSONL file the moment it completes, so
// an interrupted campaign loses at most the in-flight cells; -resume
// reads that journal back and re-simulates only the missing cells. Both
// files are deterministic: byte-identical at any -j, and an interrupted
// + resumed campaign reproduces the uninterrupted files exactly.
//
// With -obs the command serves live progress over HTTP (Prometheus
// text at /metrics, record stream at /events) without perturbing the
// simulations.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	cfg, err := parse(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		log.Print(err)
		os.Exit(2) // a rejected flag, like the flag package's own
	}
	if err := runCampaign(cfg, os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// runConfig is a fully-validated campaign invocation.
type runConfig struct {
	camp     campaign.Config
	out      string // curve CSV path; "" = stdout
	journal  string
	resume   bool
	obsAddr  string
	progress bool
}

// parse turns the command line into a fully-validated runConfig, or an
// error that names what to fix (flag.ErrHelp for -h). The campaign
// config's Validate checks every cell; parse itself adds only the
// values Options reads as defaults (-size 0, -rate 0) and the
// cross-flag rules: -resume needs -journal, seeds must be unique.
func parse(args []string) (runConfig, error) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	variants := fs.String("variants", "FastPass-static,FastPass-healing", "comma-separated variant list (scheme names plus FastPass-static/FastPass-healing)")
	patternName := fs.String("pattern", "Uniform", "synthetic pattern")
	size := fs.Int("size", 8, "mesh dimension")
	rate := fs.Float64("rate", 0.05, "injection rate in packets/node/cycle")
	runs := fs.Int("runs", 20, "Monte Carlo population: seeds 1..N per (variant, scale) cell")
	seeds := fs.String("seeds", "", "explicit comma-separated seed list (overrides -runs)")
	scales := fs.String("scales", "0,1", "comma-separated fault-plan intensity multipliers; 0 is the fault-free control")
	faultSpec := fs.String("faults", "", "fault-injection plan, e.g. 'linkfail:rate=2e-4,dur=64,perm;creditloss:rate=1e-5'")
	watchdog := fs.String("watchdog", "on", "invariant watchdogs: on, off, or tuning clauses")
	warmup := fs.Int("warmup", 0, "warmup cycles (0 = simulator default)")
	measure := fs.Int("measure", 0, "measurement cycles (0 = simulator default)")
	drain := fs.Int("drain", 0, "drain cycles (0 = simulator default)")
	jobs := fs.Int("j", 0, "parallel workers (0 = one per core, 1 = serial)")
	out := fs.String("out", "", "degradation-curve CSV path (empty = stdout)")
	journal := fs.String("journal", "", "per-cell JSONL journal path, appended as cells complete")
	resume := fs.Bool("resume", false, "reuse records already in -journal instead of re-simulating them")
	obsAddr := fs.String("obs", "", "serve live progress over HTTP on this address (host:port)")
	progress := fs.Bool("progress", false, "log each completed cell to stderr")
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}

	vars, err := campaign.ParseVariants(*variants)
	if err != nil {
		return runConfig{}, fmt.Errorf("-variants: %v", err)
	}
	pattern, err := traffic.ParsePattern(*patternName)
	if err != nil {
		return runConfig{}, fmt.Errorf("-pattern: %v", err)
	}
	seedList, err := parseSeeds(*seeds, *runs)
	if err != nil {
		return runConfig{}, err
	}
	scaleList, err := campaign.ParseScales(*scales)
	if err != nil {
		return runConfig{}, fmt.Errorf("-scales: %v", err)
	}
	switch {
	case *size == 0:
		return runConfig{}, fmt.Errorf("-size 0: need a mesh of at least 2x2")
	case *rate == 0:
		return runConfig{}, fmt.Errorf("-rate 0 offers no traffic to measure")
	case *jobs < 0:
		return runConfig{}, fmt.Errorf("-j %d: give a worker count, or 0 for one per core", *jobs)
	case *resume && *journal == "":
		return runConfig{}, fmt.Errorf("-resume reuses a journal; pass its path with -journal")
	}
	camp := campaign.Config{
		Base: sim.SynthConfig{
			Options: sim.Options{
				W: *size, H: *size, DrainPeriod: 8192,
				Faults: *faultSpec, Watchdog: *watchdog,
			},
			Pattern: pattern,
			Rate:    *rate,
			Warmup:  *warmup, Measure: *measure, Drain: *drain,
		},
		Variants: vars,
		Scales:   scaleList,
		Seeds:    seedList,
		Jobs:     *jobs,
	}
	if err := camp.Validate(); err != nil {
		return runConfig{}, err
	}
	return runConfig{
		camp: camp, out: *out, journal: *journal, resume: *resume,
		obsAddr: *obsAddr, progress: *progress,
	}, nil
}

// parseSeeds builds the Monte Carlo seed axis: an explicit -seeds list
// when given, otherwise seeds 1..runs.
func parseSeeds(list string, runs int) ([]int64, error) {
	if list == "" {
		if runs <= 0 {
			return nil, fmt.Errorf("-runs %d must be positive (or pass -seeds)", runs)
		}
		seeds := make([]int64, runs)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return seeds, nil
	}
	var seeds []int64
	for _, raw := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %q is not an integer", raw)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// runCampaign executes a validated campaign end to end: resume map,
// streamed journal, observation endpoint, final deterministic rewrite
// of the journal (grid order) and the curve CSV. stdout receives the
// CSV when -out is unset; stderr receives progress.
func runCampaign(cfg runConfig, stdout, stderr io.Writer) error {
	done, err := loadResume(cfg)
	if err != nil {
		return err
	}
	grid := campaign.Grid(cfg.camp)
	total := len(grid)
	completed := 0
	for _, p := range grid {
		if _, ok := done[p.Key()]; ok {
			completed++
		}
	}
	if cfg.resume && completed > 0 {
		fmt.Fprintf(stderr, "campaign: resuming; %d/%d cells already journaled\n", completed, total)
	}

	var jf *os.File
	if cfg.journal != "" {
		flags := os.O_CREATE | os.O_WRONLY
		if cfg.resume {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		jf, err = os.OpenFile(cfg.journal, flags, 0o644)
		if err != nil {
			return err
		}
	}

	var srv *obs.Server
	if cfg.obsAddr != "" {
		srv, err = obs.New(cfg.obsAddr)
		if err != nil {
			return fmt.Errorf("-obs: %v", err)
		}
		defer srv.Close()
		srv.SetMeta(fmt.Sprintf("reliability campaign: %d cells (%d variants x %d scales x %d seeds), size %dx%d",
			total, len(cfg.camp.Variants), len(cfg.camp.Scales), len(cfg.camp.Seeds),
			cfg.camp.Base.W, cfg.camp.Base.H))
		fmt.Fprintf(stderr, "campaign: observation endpoint on http://%s\n", srv.Addr())
	}

	// onRecord runs on worker goroutines in completion order; the mutex
	// serializes the journal appends and the progress accounting. The
	// streamed journal is crash-durable but unordered — the grid-order
	// rewrite below is what the determinism contract covers.
	var mu sync.Mutex
	var onErr error
	onRecord := func(r campaign.Record) {
		line, err := campaign.EncodeRecord(r)
		mu.Lock()
		defer mu.Unlock()
		completed++
		if err == nil && jf != nil {
			if _, werr := jf.Write(append(line, '\n')); werr != nil && onErr == nil {
				onErr = werr
			}
		}
		if cfg.progress {
			fmt.Fprintf(stderr, "campaign: %d/%d %s\n", completed, total, r.Key())
		}
		if srv != nil {
			prom := fmt.Appendf(nil, "campaign_cells_total %d\ncampaign_cells_done %d\n", total, completed)
			srv.Publish(int64(completed), line, prom)
		}
	}

	recs, err := campaign.Run(cfg.camp, done, onRecord)
	if jf != nil {
		if cerr := jf.Close(); cerr != nil && onErr == nil {
			onErr = cerr
		}
	}
	if err != nil {
		return err
	}
	if onErr != nil {
		return fmt.Errorf("journal: %v", onErr)
	}

	// The campaign is complete: rewrite the journal in grid order so the
	// file is byte-identical at any -j and across interrupt/resume.
	if cfg.journal != "" {
		if err := atomicWrite(cfg.journal, func(w io.Writer) error {
			return campaign.WriteJournal(w, recs)
		}); err != nil {
			return err
		}
	}
	curves, err := campaign.Aggregate(cfg.camp, recs)
	if err != nil {
		return err
	}
	if cfg.out == "" {
		return campaign.WriteCurvesCSV(stdout, curves)
	}
	return atomicWrite(cfg.out, func(w io.Writer) error {
		return campaign.WriteCurvesCSV(w, curves)
	})
}

// loadResume reads the journal into a resume map when -resume is set.
// A missing journal file is an empty campaign, not an error.
func loadResume(cfg runConfig) (map[string]campaign.Record, error) {
	if !cfg.resume {
		return nil, nil
	}
	f, err := os.Open(cfg.journal)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	done, err := campaign.ReadJournal(f)
	if err != nil {
		return nil, fmt.Errorf("-resume: %v", err)
	}
	return done, nil
}

// atomicWrite renders into a sibling temp file and renames it over
// path, so a crash mid-write never leaves a torn output file.
func atomicWrite(path string, render func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
