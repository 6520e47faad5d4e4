package exp

import (
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// CSV renders the Fig. 7 curves as comma-separated values: one row per
// injection rate, one column per scheme; saturated points are empty
// cells (gnuplot/matplotlib-friendly).
func (r Fig7Result) CSV() string {
	var b strings.Builder
	b.WriteString("rate")
	for _, sc := range r.Schemes {
		b.WriteString("," + sc.String())
	}
	b.WriteByte('\n')
	for i, rate := range r.Rates {
		fmt.Fprintf(&b, "%.3f", rate)
		for _, sc := range r.Schemes {
			v := r.Series[sc.String()][i]
			if math.IsNaN(v) {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%.2f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the Fig. 8 bars.
func (r Fig8Result) CSV() string {
	var b strings.Builder
	b.WriteString("size")
	for _, sc := range Fig8Schemes() {
		b.WriteString("," + sc.String())
	}
	b.WriteByte('\n')
	for i, size := range r.Sizes {
		fmt.Fprintf(&b, "%dx%d", size, size)
		for _, sc := range Fig8Schemes() {
			fmt.Fprintf(&b, ",%.4f", r.Sat[sc.String()][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig9CSV renders the latency-split points.
func Fig9CSV(points []Fig9Point) string {
	var b strings.Builder
	b.WriteString("rate,regular_pkt_latency,fp_buffered,fp_bufferless,fp_fraction\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f,%s,%s,%s,%.4f\n",
			p.Rate, csvF(p.RegularPktLatency), csvF(p.FastRegular), csvF(p.FastBufferless), p.FastFraction)
	}
	return b.String()
}

// Fig10CSV renders the application matrix (scheme labels contain
// commas, so fields are properly quoted).
func Fig10CSV(cells []Fig10Cell) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{"app", "scheme", "avg_latency", "p99_latency", "exec_cycles",
		"timeout", "regular_frac", "fastpass_frac", "dropped_frac"})
	for _, c := range cells {
		_ = w.Write([]string{
			c.App, c.Scheme, csvF(c.AvgLatency), csvF(c.P99Latency),
			strconv.FormatInt(c.ExecTime, 10), strconv.FormatBool(c.Timeout),
			fmt.Sprintf("%.4f", c.RegularFrac), fmt.Sprintf("%.4f", c.FastFrac),
			fmt.Sprintf("%.4f", c.DroppedFrac),
		})
	}
	w.Flush()
	return b.String()
}

// Fig13aCSV renders the packet-type breakdown sweep.
func Fig13aCSV(points []Fig13Point) string {
	var b strings.Builder
	b.WriteString("rate,regular_frac,fastpass_frac,dropped_frac\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%.3f,%.4f,%.4f,%.4f\n", p.Rate, p.RegularFrac, p.FastFrac, p.DroppedFrac)
	}
	return b.String()
}

// csvF renders a float, leaving NaN cells empty.
func csvF(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return fmt.Sprintf("%.2f", v)
}

// HotspotPoint is one hotspot-intensity measurement (extension
// experiment: not a paper figure, but the traffic pattern Table II's
// generator supports and FastPass's congestion-bypass argument invites).
type HotspotPoint struct {
	HotFraction float64
	// Latency per scheme name.
	Latency map[string]float64
	// Saturated per scheme name.
	Saturated map[string]bool
}

// Hotspot sweeps the fraction of traffic converging on one node and
// compares FastPass with EscapeVC and SWAP at a fixed offered rate.
// Each (fraction, scheme) run is one cell; cell i runs scheme i%3 at
// fraction i/3.
func Hotspot(s Scale) Plan[[]HotspotPoint] {
	schemes := []sim.Scheme{sim.EscapeVC, sim.SWAP, sim.FastPass}
	fractions := []float64{0.05, 0.15, 0.30}
	cells := make([]int, len(fractions)*len(schemes))
	for i := range cells {
		cells[i] = i
	}
	results := each(cells, func(i int) sim.SynthResult {
		cfg := s.base(schemes[i%len(schemes)], traffic.Hotspot, 1)
		cfg.Rate, cfg.HotspotFraction = 0.04, fractions[i/len(schemes)]
		return sim.RunSynthetic(cfg)
	})
	return assemble(results, func(results []sim.SynthResult) []HotspotPoint {
		out := make([]HotspotPoint, len(fractions))
		for k, f := range fractions {
			out[k] = HotspotPoint{HotFraction: f, Latency: map[string]float64{}, Saturated: map[string]bool{}}
		}
		for i, res := range results {
			pt, name := &out[i/len(schemes)], schemes[i%len(schemes)].String()
			pt.Latency[name], pt.Saturated[name] = res.AvgLatency, res.Saturated
		}
		return out
	})
}

// HotspotString renders the hotspot sweep.
func HotspotString(points []HotspotPoint) string {
	var b strings.Builder
	b.WriteString("Hotspot sweep (extension) — avg latency at rate 0.04, rising hotspot share\n")
	b.WriteString("hot-frac   EscapeVC       SWAP   FastPass\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.2f", p.HotFraction)
		for _, name := range []string{"EscapeVC", "SWAP", "FastPass"} {
			if p.Saturated[name] {
				fmt.Fprintf(&b, "%11s", "SAT")
			} else {
				fmt.Fprintf(&b, "%11.1f", p.Latency[name])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// KPoint is one slot-length configuration's result (Qn 5 sensitivity,
// extension experiment).
type KPoint struct {
	K          int
	Label      string
	AvgLatency float64
	FastFrac   float64
	Saturated  bool
}

// KSensitivity sweeps FastPass's slot length K around the paper's
// formula (2·diameter·inputs·VCs): the formula is a safety lower bound —
// shrinking K below the round-trip floor is rejected at construction,
// and growing it slows the lane rotation, reducing how often a given
// (router, destination) pair is served.
func KSensitivity(s Scale) Plan[[]KPoint] {
	mesh := s.mesh()
	diameter := 2 * (mesh - 1)
	formula := 2 * diameter * 5 * 1 // 1 VC
	floor := 2*diameter + 2*5 + 4
	type kVariant struct {
		k     int
		label string
	}
	variants := []kVariant{
		{floor, "round-trip floor"},
		{formula, "paper formula"},
		{2 * formula, "2x formula"},
	}
	return each(variants, func(cfg kVariant) KPoint {
		c := s.base(sim.FastPass, traffic.Uniform, 1)
		c.VCs = 1
		// 0.03 sits below the 1-VC saturation cliff (~0.04), where the
		// K comparison is stable rather than bistable.
		c.Rate = 0.03
		c.FastPassK = cfg.k
		c.Drain = 10 * c.Measure
		r := sim.RunSynthetic(c)
		return KPoint{
			K: cfg.k, Label: cfg.label,
			AvgLatency: r.AvgLatency, FastFrac: r.FastFrac, Saturated: r.Saturated,
		}
	})
}

// KSensitivityString renders the K sweep.
func KSensitivityString(points []KPoint) string {
	var b strings.Builder
	b.WriteString("FastPass slot-length sensitivity (Qn 5; Uniform 0.03, 1 VC)\n")
	b.WriteString("K        label               avg-lat   fp-frac\n")
	for _, p := range points {
		lat := fmt.Sprintf("%9.1f", p.AvgLatency)
		if p.Saturated {
			lat = "      SAT"
		}
		fmt.Fprintf(&b, "%-8d %-18s %s %9.3f\n", p.K, p.Label, lat, p.FastFrac)
	}
	return b.String()
}
