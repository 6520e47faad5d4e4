package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// telemetryFlags gathers the observability knobs so the synthetic and
// restore paths wire them identically.
type telemetryFlags struct {
	path     string // -telemetry: JSONL sink
	window   int64  // -telemetry-window
	heatmap  string // -heatmap: CSV prefix
	httpAddr string // -http
	progress bool   // -progress
}

func (tf telemetryFlags) enabled() bool {
	return tf.path != "" || tf.heatmap != "" || tf.httpAddr != ""
}

// apply wires the flags into a synthetic config: opens the sinks,
// starts the observation server, and installs the progress printer.
// The returned cleanup flushes and closes everything; call it after the
// run (it also terminates the progress line).
func (tf telemetryFlags) apply(cfg *sim.SynthConfig) (cleanup func()) {
	var closers []func()
	cleanup = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if tf.enabled() {
		if cfg.Scheme == sim.MinBD && tf.heatmap != "" {
			rejectf("-heatmap does not apply to MinBD (no routers or credit links to grid)")
		}
		if cfg.Telemetry.Window == 0 {
			cfg.Telemetry.Window = tf.window
		}
		if tf.path != "" {
			f, err := os.Create(tf.path)
			if err != nil {
				log.Fatal(err)
			}
			closers = append(closers, func() { f.Close() })
			cfg.Telemetry.JSONL = f
		}
		if tf.heatmap != "" {
			nodes, err := os.Create(tf.heatmap + "-nodes.csv")
			if err != nil {
				log.Fatal(err)
			}
			links, err := os.Create(tf.heatmap + "-links.csv")
			if err != nil {
				log.Fatal(err)
			}
			closers = append(closers, func() { nodes.Close(); links.Close() })
			cfg.Telemetry.NodeCSV, cfg.Telemetry.LinkCSV = nodes, links
		}
		if tf.httpAddr != "" {
			srv, err := obs.New(tf.httpAddr)
			if err != nil {
				log.Fatal(err)
			}
			srv.SetMeta(fmt.Sprintf("scheme=%v pattern=%v rate=%g", cfg.Scheme, cfg.Pattern, cfg.Rate))
			log.Printf("observing on http://%s", srv.Addr())
			closers = append(closers, func() { srv.Close() })
			cfg.Telemetry.Publish = srv.Publish
		}
	}
	if tf.progress {
		cfg.ProgressEvery = 5000
		if cfg.Telemetry.Window > 0 && cfg.Telemetry.Window < cfg.ProgressEvery {
			cfg.ProgressEvery = cfg.Telemetry.Window
		}
		// The rate estimate reads the wall clock here in the CLI — the
		// simulator itself never does (the determinism contract).
		start := time.Now()
		startCycle := int64(-1)
		cfg.OnProgress = func(p sim.Progress) {
			if startCycle < 0 {
				startCycle = p.Cycle // resumed runs start mid-count
				start = time.Now()
			}
			cps := float64(p.Cycle-startCycle) / time.Since(start).Seconds()
			fmt.Fprintf(os.Stderr, "\rcycle %d/%d (%.0f cycles/s) created %d delivered %d in-flight %d   ",
				p.Cycle, p.Total, cps, p.Created, p.Delivered, p.InFlight)
		}
		closers = append(closers, func() { fmt.Fprintln(os.Stderr) })
	}
	return cleanup
}
