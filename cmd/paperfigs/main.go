// Command paperfigs regenerates every table and figure of the paper's
// evaluation and prints the data series. EXPERIMENTS.md records a full
// run.
//
// Usage:
//
//	paperfigs              # everything, paper-scale, all cores
//	paperfigs -quick       # shrunken runs (sanity pass)
//	paperfigs -j 1         # serial (same output bit-for-bit, slower)
//	paperfigs -only fig7   # one artefact: table1 table2 fig7 fig8 fig9
//	                       # fig10 fig11 fig12 fig13 ablations vcsweep hotspot ksweep
//
// Every requested artefact's cells (a serial sweep, a bisection, a
// single run) go through one pool of -j workers; stderr reports where
// the time went.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/parallel"
	"repro/internal/powerarea"
)

// artefacts are the names -only accepts, in the order a full run prints them.
var artefacts = strings.Fields("table1 table2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 ablations vcsweep hotspot ksweep")

var csvDir = flag.String("csv", "", "also write each figure's data as CSV into this directory")

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	quick := flag.Bool("quick", false, "shrunken meshes and windows")
	only := flag.String("only", "", "regenerate a single artefact")
	jobs := flag.Int("j", 0, "parallel workers (0 = one per core, 1 = serial); output is identical at any -j")
	flag.Parse()
	if *only != "" && !slices.Contains(artefacts, *only) {
		log.Printf("-only %q: want one of %s", *only, strings.Join(artefacts, " "))
		os.Exit(2)
	}
	if *jobs < 0 {
		log.Printf("-j %d: give a worker count, or 0 for one per core", *jobs)
		os.Exit(2)
	}

	want := func(name string) bool { return *only == "" || *only == name }
	s := exp.Scale{Quick: *quick}
	steps := []step{ // in print order
		{"table1", nil, table1},
		{"table2", nil, func() { table2(s) }},
	}
	for _, p := range exp.Fig7Patterns() {
		steps = append(steps, drive("fig7", exp.Fig7(s, p), exp.Fig7Result.String, "fig7_"+strings.ToLower(p.String()), exp.Fig7Result.CSV))
	}
	fig10, fig12 := fig10Steps(exp.Fig10(s), want("fig10"))
	steps = append(steps,
		drive("fig8", exp.Fig8(s), exp.Fig8Result.String, "fig8", exp.Fig8Result.CSV),
		drive("fig9", exp.Fig9(s), exp.Fig9String, "fig9", exp.Fig9CSV),
		fig10,
		step{"fig11", nil, fig11},
		fig12,
		drive("fig13", exp.Fig13a(s), exp.Fig13aString, "fig13a", exp.Fig13aCSV),
		drive("fig13", exp.Fig13b(s), exp.Fig13bString, "", nil),
		drive("ablations", exp.Ablations(s), exp.AblationsString, "", nil),
		drive("vcsweep", exp.VCSensitivity(s), exp.VCSensitivityString, "", nil),
		drive("hotspot", exp.Hotspot(s), exp.HotspotString, "", nil),
		drive("ksweep", exp.KSensitivity(s), exp.KSensitivityString, "", nil),
	)
	steps = slices.DeleteFunc(steps, func(st step) bool { return !want(st.artefact) })
	runSteps(*jobs, steps)
}

// step is one printed block of an artefact: the cells it needs run
// (none for the tables and Fig. 11), and print, which renders it once
// they have.
type step struct {
	artefact string
	cells    []func()
	print    func()
}

// drive is the step that runs plan's cells and prints its table and,
// with -csv, its CSV (if any) as name.csv.
func drive[R any](artefact string, plan exp.Plan[R], table func(R) string, name string, csv func(R) string) step {
	return step{artefact, plan.Cells, func() {
		r := plan.Result()
		fmt.Println(table(r))
		if csv != nil && *csvDir != "" {
			writeCSV(name, csv(r))
		}
	}}
}

// fig10Steps are Fig. 10's step and Fig. 12's, which prints the p99
// view of the same plan's runs. The runs happen once: with Fig. 10's
// step when it is requested (withFig10), else with Fig. 12's.
func fig10Steps(plan exp.Plan[[]exp.Fig10Cell], withFig10 bool) (fig10, fig12 step) {
	fig12 = step{"fig12", plan.Cells, func() { fmt.Println(exp.Fig12String(plan.Result())) }}
	if withFig10 {
		fig12.cells = nil
	}
	return drive("fig10", plan, exp.Fig10String, "fig10", exp.Fig10CSV), fig12
}

// writeCSV writes data as name.csv in the -csv directory.
func writeCSV(name, data string) {
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(*csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// runSteps runs every step's cells through one parallel.Map of jobs
// workers — Fig. 8's first, its 16×16 bisections being the longest —
// then prints the steps in order. stderr gets each artefact's cell
// count and summed cell seconds, then the pool's wall seconds, workers,
// utilisation (Σ cell seconds / (wall × workers)), and the MB allocated
// and GC cycles run while it ran.
func runSteps(jobs int, steps []step) {
	type cell struct {
		artefact string
		run      func()
	}
	var cells []cell
	for _, st := range steps {
		var batch []cell
		for _, run := range st.cells {
			batch = append(batch, cell{st.artefact, run})
		}
		if st.artefact == "fig8" {
			cells = append(batch, cells...)
		} else {
			cells = append(cells, batch...)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	secs := parallel.Map(jobs, cells, func(c cell) float64 {
		t := time.Now()
		c.run()
		return time.Since(t).Seconds()
	})
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)

	count, sum, total := map[string]int{}, map[string]float64{}, 0.0
	for i, c := range cells {
		count[c.artefact]++
		sum[c.artefact] += secs[i]
		total += secs[i]
	}
	for _, a := range artefacts {
		if count[a] > 0 {
			log.Printf("%s: %d cells, %.1f cell-s", a, count[a], sum[a])
		}
	}
	if len(cells) > 0 {
		workers := min(parallel.Workers(jobs), len(cells))
		log.Printf("%.1f s wall, %d workers, utilisation %.2f, %.1f MB allocated, %d GC cycles",
			wall, workers, total/(wall*float64(workers)), float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, m1.NumGC-m0.NumGC)
	}
	for _, st := range steps {
		st.print()
	}
}

func table1() {
	fmt.Println("Table I — comparison of deadlock freedom solutions")
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	fmt.Printf("%-18s %6s %6s %6s %6s %6s %6s %6s %6s\n",
		"solution", "noDet", "proto", "net", "paths", "thrpt", "power", "scale", "noMis")
	for _, r := range exp.Table1() {
		fmt.Printf("%-18s %6s %6s %6s %6s %6s %6s %6s %6s\n",
			r.Solution, mark(r.NoDetection), mark(r.ProtocolFree), mark(r.NetworkFree),
			mark(r.FullPathDiversity), mark(r.HighThroughput), mark(r.LowPower),
			mark(r.Scalable), mark(r.NoMisrouting))
		if r.Caveats != "" {
			fmt.Printf("%-18s   · %s\n", "", r.Caveats)
		}
	}
	fmt.Println()
}

func table2(s exp.Scale) {
	mesh := "8x8 (plus 4x4 and 16x16 in Fig. 8)"
	if s.Quick {
		mesh = "4x4 (quick mode)"
	}
	rows := [][2]string{
		{"Topology", mesh},
		{"Router latency", "1 cycle (+1 cycle links)"},
		{"Flow control", "virtual cut-through, single packet per VC"},
		{"Buffer size", "5 flits per VC"},
		{"Link bandwidth", "128 bits/cycle (1 flit)"},
		{"Packet mix", "1-flit and 5-flit, 50/50"},
		{"VNs", "0 (FastPass, Pitstop) / 6 (others)"},
		{"VCs", "FastPass 1/2/4; baselines 2 per VN"},
		{"Routing", "fully adaptive (FastPass regular pass, SPIN, SWAP, DRAIN, Pitstop); escape west-first (EscapeVC); west-first (TFC); deflection (MinBD)"},
		{"SPIN detection threshold", "128 cycles"},
		{"SWAP duty", "1K cycles"},
		{"DRAIN period", "64K cycles (scaled to 8192/4096 inside short experiment windows)"},
		{"FastPass slot K", "(2×diameter)×inputs×VCs, per Qn 5"},
		{"Synthetic patterns", "Uniform, Transpose, Shuffle, Bit Rotation"},
	}
	fmt.Println("Table II — key simulation parameters")
	for _, r := range rows {
		fmt.Printf("  %-26s %s\n", r[0], r[1])
	}
	fmt.Println()
}

func fig11() {
	fmt.Println("Fig. 11 — post-P&R router power and area (analytical model)")
	var escArea, escPower float64
	for _, c := range powerarea.Fig11Configs() {
		r := powerarea.Estimate(c)
		if strings.HasPrefix(c.Name, "EscapeVC") {
			escArea, escPower = r.Area.Total(), r.Power.Total()
		}
		fmt.Printf("  %s\n", r)
	}
	for _, c := range powerarea.Fig11Configs() {
		if !strings.HasPrefix(c.Name, "FastPass") {
			continue
		}
		r := powerarea.Estimate(c)
		fmt.Printf("  FastPass vs EscapeVC: area −%.1f%%, power −%.1f%%\n",
			100*(1-r.Area.Total()/escArea), 100*(1-r.Power.Total()/escPower))
	}
	fmt.Println()
}
