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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/exp"
	"repro/internal/parallel"
	"repro/noc"
)

// artefacts are the names -only accepts, in the order a full run prints them.
var artefacts = strings.Fields("table1 table2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 ablations vcsweep hotspot ksweep")

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	quick := flag.Bool("quick", false, "shrunken meshes and windows")
	only := flag.String("only", "", "regenerate a single artefact")
	csvDir := flag.String("csv", "", "also write each figure's data as CSV into this directory")
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

	s := exp.Scale{Quick: *quick, Jobs: *jobs}
	want := func(name string) bool { return *only == "" || *only == name }
	writeCSV := func(name, data string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}

	if want("table1") {
		table1()
	}
	if want("table2") {
		table2(s)
	}
	if want("fig7") {
		// The four sub-figures are independent; compute them together,
		// print in figure order.
		patterns := exp.Fig7Patterns()
		results := parallel.Map(s.Jobs, patterns, func(p noc.Pattern) exp.Fig7Result {
			return exp.Fig7(s, p)
		})
		for i, p := range patterns {
			fmt.Println(results[i])
			writeCSV("fig7_"+strings.ToLower(p.String()), results[i].CSV())
		}
	}
	if want("fig8") {
		r := exp.Fig8(s)
		fmt.Println(r)
		writeCSV("fig8", r.CSV())
	}
	if want("fig9") {
		pts := exp.Fig9(s)
		fmt.Println(exp.Fig9String(pts))
		writeCSV("fig9", exp.Fig9CSV(pts))
	}
	var fig10Cells []exp.Fig10Cell
	if want("fig10") || want("fig12") {
		fig10Cells = exp.Fig10(s)
	}
	if want("fig10") {
		fmt.Println(exp.Fig10String(fig10Cells))
		writeCSV("fig10", exp.Fig10CSV(fig10Cells))
	}
	if want("fig11") {
		fig11()
	}
	if want("fig12") {
		fmt.Println(exp.Fig12String(fig10Cells))
	}
	if want("fig13") {
		pts := exp.Fig13a(s)
		fmt.Println(exp.Fig13aString(pts))
		writeCSV("fig13a", exp.Fig13aCSV(pts))
		fmt.Println(exp.Fig13bString(exp.Fig13b(s)))
	}
	if want("ablations") {
		fmt.Println(exp.AblationsString(exp.Ablations(s)))
	}
	if want("vcsweep") {
		fmt.Println(exp.VCSensitivityString(exp.VCSensitivity(s)))
	}
	if want("hotspot") {
		fmt.Println(exp.HotspotString(exp.Hotspot(s)))
	}
	if want("ksweep") {
		fmt.Println(exp.KSensitivityString(exp.KSensitivity(s)))
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
	for _, r := range noc.Table1() {
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
	for _, c := range noc.Fig11Configs() {
		r := noc.EstimatePowerArea(c)
		if strings.HasPrefix(c.Name, "EscapeVC") {
			escArea, escPower = r.Area.Total(), r.Power.Total()
		}
		fmt.Printf("  %s\n", r)
	}
	for _, c := range noc.Fig11Configs() {
		if !strings.HasPrefix(c.Name, "FastPass") {
			continue
		}
		r := noc.EstimatePowerArea(c)
		fmt.Printf("  FastPass vs EscapeVC: area −%.1f%%, power −%.1f%%\n",
			100*(1-r.Area.Total()/escArea), 100*(1-r.Power.Total()/escPower))
	}
	fmt.Println()
}
