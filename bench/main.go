// Command bench is the repository's benchmark: six end-to-end workloads
// run through the entry points users hit, a traced pass that attributes
// host time to layers from outside, and the -compare / -ledger tools
// later PRs are judged with. README.md in this directory has the metric
// and workload tables; BENCHMARK.json at the repository root is the
// contract the driver reads.
//
// Usage (from the repository root):
//
//	go run ./bench -seed 1                      # all six workloads, end-to-end metrics
//	go run ./bench -seed 1 -trace 1             # per-layer metrics from the traced pass
//	go run ./bench -workload fig7_uniform -seed 3 -seconds 15 -trace 0
//	go run ./bench -smoke                       # 1/20 size, all checks, not comparable
//	go run ./bench -out .bench_out/A.jsonl      # append one report line per workload
//	go run ./bench -trace 1 -trace-out .bench_out/spans.json
//	go run ./bench -compare A.jsonl B.jsonl     # apply BENCHMARK.json's bounds
//	go run ./bench -ledger L.jsonl -commit SHA  # append the medians to a trajectory
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// defaultSeconds matches run_seconds in BENCHMARK.json (spec_test.go
// keeps the two equal).
const defaultSeconds = 15

// resultLine is the last line of standard output for one workload: the
// shape the driver parses.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints one workload's metrics by name with their units, the
// failed operations, and the driver's JSON line.
func printRun(line runLine) error {
	names := make([]string, 0, len(line.Metrics))
	if line.Trace == 0 {
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
	} else {
		for _, m := range layerMetrics() {
			names = append(names, m.name)
		}
	}
	fmt.Printf("# %s  seed=%d  reps=%d  sim_fingerprint=%s", line.Workload, line.Seed, line.Reps, line.SimFingerprint)
	if line.Smoke {
		fmt.Print("  SMOKE (not comparable)")
	}
	fmt.Println()
	res := resultLine{
		Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed,
		Metrics: map[string]resultValue{},
	}
	for _, name := range names {
		m := line.Metrics[name]
		res.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
		if len(m.Values) > 1 {
			fmt.Printf("%-22s %-34s %16.6f %-9s min %.6f max %.6f n=%d\n", line.Workload, name, m.Value, m.Unit, m.Min, m.Max, len(m.Values))
		} else {
			fmt.Printf("%-22s %-34s %16.6f %s\n", line.Workload, name, m.Value, m.Unit)
		}
	}
	if len(line.PhasePct) > 0 {
		phases := make([]string, 0, len(line.PhasePct))
		for name := range line.PhasePct {
			phases = append(phases, name)
		}
		sort.Slice(phases, func(i, j int) bool { return line.PhasePct[phases[i]] > line.PhasePct[phases[j]] })
		for _, name := range phases {
			fmt.Printf("%-22s share of traced wall: %-24s %6.2f %%\n", line.Workload, name, line.PhasePct[name])
		}
	}
	fmt.Printf("%-22s %-34s %16d of %d ops\n", line.Workload, "ops_failed", line.Failed, line.Attempted)
	for _, f := range line.Failures {
		fmt.Printf("FAILED %s: %s\n", line.Workload, f)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all six)")
		seed         = flag.Int64("seed", 1, "workload seed: every Options.Seed and the campaign seed list derive from it")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured time per workload; repetitions continue until it has passed (at least 3)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		smoke        = flag.Bool("smoke", false, "1/20 of the cycles, two repetitions, every correctness check; numbers are not comparable")
		out          = flag.String("out", "", "append one JSON report line per workload to this file")
		traceOut     = flag.String("trace-out", "", "with -trace 1: write the spans to this file when the run ends")
		doCompare    = flag.Bool("compare", false, "compare two -out reports: bench -compare A.jsonl B.jsonl")
		specPath     = flag.String("spec", "BENCHMARK.json", "the benchmark contract (-compare reads its bounds)")
		ledger       = flag.String("ledger", "", "append one line of end-to-end medians to this trajectory file")
		commit       = flag.String("commit", "", "commit the -ledger line is recorded for")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		ok, err := runCompare(*specPath, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *ledger != "" && (*commit == "" || *trace != 0 || *smoke) {
		fmt.Fprintln(os.Stderr, "bench: -ledger records untraced full-size runs and needs -commit")
		return 2
	}

	todo := workloads()
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			var names []string
			for _, w := range todo {
				names = append(names, w.name)
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workloadName, names)
			return 2
		}
		todo = []workload{w}
	}
	p := params{seed: *seed, scale: benchScale}
	minReps := benchMinReps
	if *smoke {
		p.scale, minReps, *seconds = smokeScale, smokeMinReps, 0
	}

	var lines []runLine
	var traces []traceFile
	correct := true
	for _, w := range todo {
		var line runLine
		if *trace == 1 {
			var tf traceFile
			line, tf = measureTraced(w, p)
			traces = append(traces, tf)
		} else {
			line = measureEndToEnd(w, p, *seconds, minReps)
		}
		if err := printRun(line); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		correct = correct && line.Correct
		lines = append(lines, line)
		if *out != "" {
			if err := appendJSONLine(*out, line); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
	}
	if *traceOut != "" && len(traces) > 0 {
		if err := writeTrace(*traceOut, traces); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if *ledger != "" {
		if err := appendLedger(*ledger, *commit, lines); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if !correct {
		// The result line above already says correct=false; the exit
		// code stays 0 so the driver reads it instead of a crash.
		fmt.Fprintln(os.Stderr, "bench: some operations failed their correctness checks")
	}
	return 0
}
