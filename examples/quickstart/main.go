// Quickstart: run FastPass and EscapeVC side by side on a 4×4 mesh
// under uniform traffic and compare latency and throughput. This is the
// smallest end-to-end use of sim.RunSynthetic.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	log.SetFlags(0)
	fmt.Println("FastPass vs EscapeVC — 4x4 mesh, uniform random traffic")
	fmt.Println()
	fmt.Printf("%-8s %-10s %12s %12s %12s\n", "rate", "scheme", "avg lat", "p99 lat", "delivered")
	for _, rate := range []float64{0.02, 0.06, 0.10, 0.14} {
		for _, scheme := range []sim.Scheme{sim.FastPass, sim.EscapeVC} {
			res := sim.RunSynthetic(sim.SynthConfig{
				Options: sim.Options{Scheme: scheme, W: 4, H: 4, Seed: 42},
				Pattern: traffic.Uniform,
				Rate:    rate,
			})
			state := fmt.Sprintf("%11.1f%%", 100*res.DeliveredFrac)
			if res.Saturated {
				state = "  SATURATED"
			}
			fmt.Printf("%-8.2f %-10v %12.1f %12.0f %s\n",
				rate, scheme, res.AvgLatency, res.P99Latency, state)
		}
	}
	fmt.Println()
	fmt.Println("FastPass keeps latency flat further up the load curve because")
	fmt.Println("prime routers keep promoting packets onto collision-free lanes")
	fmt.Println("while its shared (VN-free) buffers absorb bursts no matter the")
	fmt.Println("message class.")
}
