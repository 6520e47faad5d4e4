// Command noctrace runs a short simulation with event tracing enabled
// and prints the event summary, the retained event log, and — when a
// packet ID is given — one packet's full lifecycle through the FastPass
// machinery.
//
// Usage:
//
//	noctrace -scheme FastPass -rate 0.08 -cycles 3000
//	noctrace -scheme FastPass -rate 0.10 -vcs 1 -pkt 120 -json
//	noctrace -scheme FastPass -rate 0.08 -jsonl > events.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/message"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("noctrace: ")

	schemeName := flag.String("scheme", "FastPass", "scheme to trace")
	rate := flag.Float64("rate", 0.08, "injection rate (uniform traffic)")
	size := flag.Int("size", 4, "mesh dimension")
	vcs := flag.Int("vcs", 0, "VCs (0 = scheme default)")
	cycles := flag.Int("cycles", 3000, "cycles to simulate")
	capacity := flag.Int("events", 200, "retained event count")
	pkt := flag.Uint64("pkt", 0, "print one packet's lifecycle")
	asJSON := flag.Bool("json", false, "emit the event log as JSON")
	asJSONL := flag.Bool("jsonl", false, "emit the event log as JSON Lines (one event per line)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	scheme, err := sim.ParseScheme(*schemeName)
	opts := sim.Options{Scheme: scheme, W: *size, H: *size, VCs: *vcs, Seed: *seed, TraceCapacity: *capacity}
	switch {
	case err != nil: // an unknown -scheme
	case *size == 0: // Options would read 0 as the default 8x8 mesh
		err = errors.New("-size 0: need a mesh of at least 2x2")
	case *cycles < 0:
		err = fmt.Errorf("-cycles %d must not be negative", *cycles)
	case *capacity < 1: // 0 would switch the recorder off
		err = fmt.Errorf("-events %d: need at least 1 retained event", *capacity)
	case *asJSON && *asJSONL:
		err = errors.New("-json and -jsonl are mutually exclusive")
	default:
		err = sim.SynthConfig{Options: opts, Pattern: traffic.Uniform, Rate: *rate}.Validate()
	}
	if err != nil {
		log.Print(err)
		os.Exit(2) // a rejected flag, like the flag package's own
	}
	inst := sim.Build(opts)
	inst.SetOnEject(func(*message.Packet) {})
	src := snapshot.NewCountingSource(*seed)
	gen := &traffic.Generator{Pattern: traffic.Uniform, Rate: *rate, W: *size, H: *size, Stream: src}
	inst.Run(uniform{inst, gen, rand.New(src)}, int64(*cycles))

	rec := inst.Trace
	// Machine-readable modes keep stdout pure (pipe to jq, redirect to
	// a .jsonl file); the human summary moves to stderr.
	summaryOut := io.Writer(os.Stdout)
	if *asJSON || *asJSONL {
		summaryOut = os.Stderr
	}
	fmt.Fprint(summaryOut, rec.Summary())
	fmt.Fprintln(summaryOut)
	if *pkt != 0 {
		hist := rec.PacketHistory(*pkt)
		if len(hist) == 0 {
			fmt.Printf("packet %d has no retained events (raise -events or pick a later packet)\n", *pkt)
			return
		}
		fmt.Printf("packet %d lifecycle:\n", *pkt)
		for _, e := range hist {
			fmt.Printf("  cycle %-7d %-12s node %d %s\n", e.Cycle, e.Kind, e.Node, e.Note)
		}
		return
	}
	write := rec.WriteText
	if *asJSON {
		write = rec.WriteJSON
	} else if *asJSONL {
		write = rec.WriteJSONL
	}
	if err := write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// uniform is the traced run's traffic: Bernoulli injection from the
// command's own -seed stream, every packet a fresh allocation.
type uniform struct {
	inst *sim.Instance
	gen  *traffic.Generator
	rng  *rand.Rand
}

func (u uniform) Tick(cycle int64) {
	for _, p := range u.gen.Tick(cycle, u.rng) {
		u.inst.Enqueue(p)
	}
}

func (uniform) Tock(int64) bool { return false }
