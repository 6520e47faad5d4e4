// Appworkload: run a coherence-protocol application profile (the
// Fig. 10 methodology) across several schemes and compare average packet
// latency, 99th-percentile tail latency and execution time.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	appName := flag.String("app", "Canneal", "application profile (try: workload.Names())")
	size := flag.Int("size", 4, "mesh dimension")
	flag.Parse()

	app, err := workload.Get(*appName)
	if err != nil {
		log.Fatalf("%v (known apps: %v)", err, workload.Names())
	}
	app.WorkQuota = 1500

	fmt.Printf("Application %s on a %dx%d mesh (%d coherence transactions)\n\n",
		app.Name, *size, *size, app.WorkQuota)
	fmt.Printf("%-22s %10s %10s %12s %10s\n", "scheme", "avg lat", "p99 lat", "exec cycles", "norm")

	type cfg struct {
		scheme sim.Scheme
		vcs    int
		label  string
	}
	cfgs := []cfg{
		{sim.EscapeVC, 2, "EscapeVC (VN=6,VC=2)"},
		{sim.SWAP, 2, "SWAP (VN=6,VC=2)"},
		{sim.Pitstop, 2, "Pitstop (VN=0,VC=2)"},
		{sim.FastPass, 2, "FastPass (VN=0,VC=2)"},
		{sim.FastPass, 4, "FastPass (VN=0,VC=4)"},
	}
	var escExec int64
	for _, c := range cfgs {
		res := sim.RunApp(sim.AppConfig{
			Options: sim.Options{Scheme: c.scheme, W: *size, H: *size, VCs: c.vcs, Seed: 7},
			App:     app,
		})
		if c.scheme == sim.EscapeVC {
			escExec = res.ExecTime
		}
		norm := float64(res.ExecTime) / float64(escExec)
		mark := ""
		if res.Timeout {
			mark = " (timeout)"
		}
		fmt.Printf("%-22s %10.1f %10.0f %12d %9.3f%s\n",
			c.label, res.AvgLatency, res.P99Latency, res.ExecTime, norm, mark)
	}
	fmt.Println()
	fmt.Println("FastPass runs the protocol with zero virtual networks — the same")
	fmt.Println("correctness guarantee the 6-VN baselines buy with 3x the buffers.")
}
