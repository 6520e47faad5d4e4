// Benchmarks mapping one-to-one onto the paper's tables and figures.
// Each benchmark runs a reduced-scale version of the corresponding
// experiment (cmd/paperfigs regenerates the full-scale data) and reports
// the figure's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as a regression harness for the reproduction's shape claims.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/exp"
	"repro/internal/fastpass"
	"repro/internal/powerarea"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// benchSynth is a small, fast synthetic point.
func benchSynth(scheme sim.Scheme, pattern traffic.Pattern, rate float64) sim.SynthConfig {
	return sim.SynthConfig{
		Options: sim.Options{Scheme: scheme, W: 4, H: 4, Seed: 1, DrainPeriod: 4096},
		Pattern: pattern,
		Rate:    rate,
		Warmup:  500, Measure: 2000, Drain: 1500,
	}
}

// BenchmarkTable1Properties regenerates Table I (the qualitative
// comparison matrix).
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table1()
		if len(rows) != 8 {
			b.Fatal("Table I has 8 rows")
		}
		fp := rows[len(rows)-1]
		if !fp.HighThroughput || !fp.LowPower || !fp.Scalable {
			b.Fatal("FastPass row corrupted")
		}
	}
}

// BenchmarkFig7Synthetic regenerates a reduced Fig. 7: the full scheme
// set swept over injection rates on Uniform traffic. Reports FastPass's
// average latency at the highest common pre-saturation rate.
func BenchmarkFig7Synthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rates := []float64{0.02, 0.08, 0.14}
		var fpLat float64
		for _, scheme := range exp.Fig7Schemes() {
			pts := sim.SweepLatency(benchSynth(scheme, traffic.Uniform, 0), rates)
			if scheme == sim.FastPass {
				fpLat = pts[0].AvgLatency
			}
		}
		b.ReportMetric(fpLat, "fastpass-lowload-latency-cycles")
	}
}

// BenchmarkFig8Scaling regenerates a reduced Fig. 8: saturation
// throughput for FastPass vs SWAP at 4×4 (Transpose). Reports the
// FastPass/SWAP throughput ratio.
func BenchmarkFig8Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, fp := sim.SaturationThroughput(benchSynth(sim.FastPass, traffic.Transpose, 0), 0.01, 0.6, 4)
		_, sw := sim.SaturationThroughput(benchSynth(sim.SWAP, traffic.Transpose, 0), 0.01, 0.6, 4)
		b.ReportMetric(fp/sw, "fastpass-vs-swap-throughput-ratio")
	}
}

// BenchmarkFig9Breakdown regenerates a reduced Fig. 9: FastPass packet
// latency split under Uniform traffic with 1 VC. Reports the bufferless
// component (which the paper shows stays flat).
func BenchmarkFig9Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSynth(sim.FastPass, traffic.Uniform, 0.08)
		cfg.VCs = 1
		res := sim.RunSynthetic(cfg)
		if !math.IsNaN(res.FastSplitFast) {
			b.ReportMetric(res.FastSplitFast, "bufferless-cycles")
		}
	}
}

// BenchmarkFig10Applications regenerates a reduced Fig. 10: one
// application across the headline schemes. Reports FastPass(VC=4)'s
// execution time normalized to EscapeVC.
func BenchmarkFig10Applications(b *testing.B) {
	app := workload.MustGet("FFT")
	app.WorkQuota = 400
	for i := 0; i < b.N; i++ {
		exec := map[sim.Scheme]int64{}
		for _, s := range []sim.Scheme{sim.EscapeVC, sim.FastPass} {
			vcs := 2
			if s == sim.FastPass {
				vcs = 4
			}
			r := sim.RunApp(sim.AppConfig{
				Options:   sim.Options{Scheme: s, W: 4, H: 4, VCs: vcs, Seed: 3},
				App:       app,
				MaxCycles: 200000,
			})
			exec[s] = r.ExecTime
		}
		b.ReportMetric(float64(exec[sim.FastPass])/float64(exec[sim.EscapeVC]), "fastpass-exec-norm")
	}
}

// BenchmarkFig11PowerArea regenerates Fig. 11 and reports the FastPass
// area reduction over EscapeVC (the paper's 40%).
func BenchmarkFig11PowerArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var esc, fp float64
		for _, c := range powerarea.Fig11Configs() {
			r := powerarea.Estimate(c)
			switch c.Name {
			case "EscapeVC (VN=6, VC=2)":
				esc = r.Area.Total()
			case "FastPass (VN=0, VC=2)":
				fp = r.Area.Total()
			}
		}
		b.ReportMetric(100*(1-fp/esc), "area-reduction-pct")
	}
}

// BenchmarkFig12TailLatency regenerates a reduced Fig. 12: p99 packet
// latency for FastPass vs DRAIN on one application. Reports the
// DRAIN/FastPass tail ratio (the paper shows DRAIN's misrouting gives it
// the worst tail).
func BenchmarkFig12TailLatency(b *testing.B) {
	app := workload.MustGet("Canneal")
	app.WorkQuota = 400
	for i := 0; i < b.N; i++ {
		p99 := map[sim.Scheme]float64{}
		for _, s := range []sim.Scheme{sim.DRAIN, sim.FastPass} {
			r := sim.RunApp(sim.AppConfig{
				Options:   sim.Options{Scheme: s, W: 4, H: 4, VCs: 2, Seed: 3, DrainPeriod: 2048},
				App:       app,
				MaxCycles: 200000,
			})
			p99[s] = r.P99Latency
		}
		b.ReportMetric(p99[sim.DRAIN]/p99[sim.FastPass], "drain-vs-fastpass-p99-ratio")
	}
}

// BenchmarkFig13Breakdown regenerates a reduced Fig. 13(a): the
// regular/FastPass/dropped packet mix under Uniform traffic with 1 VC.
// Reports the dropped fraction (the paper: negligible, ≤5.9% even past
// saturation).
func BenchmarkFig13Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSynth(sim.FastPass, traffic.Uniform, 0.10)
		cfg.VCs = 1
		res := sim.RunSynthetic(cfg)
		b.ReportMetric(res.DroppedFrac, "dropped-fraction")
	}
}

// BenchmarkLaneConstruction measures the pure lane geometry (Figs. 1
// and 4): building all non-overlapping lanes and returning paths of an
// 8×8 mesh phase.
func BenchmarkLaneConstruction(b *testing.B) {
	mesh := topology.NewMesh(8, 8)
	sched := fastpass.NewSchedule(mesh, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for slot := 0; slot < sched.Partitions(); slot++ {
			for col := 0; col < sched.Partitions(); col++ {
				prime := sched.PrimeNode(col, i%8)
				dst := mesh.ID(sched.Covered(col, slot), (i+col)%8)
				lane := routing.AppendPathXY(mesh, nil, prime, dst)
				ret := routing.AppendPathYX(mesh, nil, dst, prime)
				if len(lane) != len(ret) {
					b.Fatal("lane/return length mismatch")
				}
			}
		}
	}
}

// BenchmarkRouterCycle measures the hot path: one cycle of a loaded 8×8
// FastPass network.
func BenchmarkRouterCycle(b *testing.B) {
	cfg := sim.SynthConfig{
		Options: sim.Options{Scheme: sim.FastPass, W: 8, H: 8, Seed: 1},
		Pattern: traffic.Uniform,
		Rate:    0.10,
		Warmup:  b.N, Measure: 1, Drain: 0,
	}
	b.ResetTimer()
	sim.RunSynthetic(cfg)
}
