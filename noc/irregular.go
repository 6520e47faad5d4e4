package noc

import (
	"fmt"
	"math/rand"

	"repro/internal/irrnet"
	"repro/internal/message"
	"repro/internal/stats"
	"repro/internal/topology"
)

// IrregularConfig describes a §III-F run: uniform random traffic over an
// arbitrary irregular topology with FastPass's circulating lanes.
type IrregularConfig struct {
	// Nodes and Edges define the topology (undirected edges; every
	// channel is a pair of opposing links).
	Nodes int
	Edges [][2]int

	// Rate is the offered load in packets/node/cycle.
	Rate float64

	// VCs per network port (default 2) and Lanes (default derived from
	// the walk length). DisableLanes runs the bare adaptive network —
	// which may deadlock; that is the point of the control runs.
	VCs, Lanes   int
	DisableLanes bool

	// Warmup/Measure/Drain windows (defaults 1000/3000/2000).
	Warmup, Measure, Drain int

	Seed int64
}

// IrregularResult is the measurement.
type IrregularResult struct {
	AvgLatency    float64
	P99Latency    float64
	Throughput    float64
	DeliveredFrac float64
	Promoted      int64
	Saturated     bool
}

// RunIrregular simulates one point on an irregular topology.
func RunIrregular(cfg IrregularConfig) (IrregularResult, error) {
	if cfg.Warmup == 0 {
		cfg.Warmup = 1000
	}
	if cfg.Measure == 0 {
		cfg.Measure = 3000
	}
	if cfg.Drain == 0 {
		cfg.Drain = 2000
	}
	topo, err := topology.NewIrregular(cfg.Nodes, cfg.Edges)
	if err != nil {
		return IrregularResult{}, err
	}
	if cfg.VCs < 0 || cfg.VCs > 64 || topo.NumPorts() > 64 {
		return IrregularResult{}, fmt.Errorf("noc: %d VCs on %d ports; irregular routers take 1..64 VCs and at most 63 neighbours per node", cfg.VCs, topo.NumPorts())
	}
	net := irrnet.New(topo, irrnet.Params{
		VCs: cfg.VCs, Lanes: cfg.Lanes, DisableLanes: cfg.DisableLanes,
	})
	col := stats.New(cfg.Nodes, int64(cfg.Warmup), int64(cfg.Warmup+cfg.Measure))
	for _, nc := range net.NICs {
		nc.OnEject = col.OnEject
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x1f))
	var nextID uint64
	total := cfg.Warmup + cfg.Measure + cfg.Drain
	for c := 0; c < total; c++ {
		for src := 0; src < cfg.Nodes; src++ {
			if rng.Float64() >= cfg.Rate {
				continue
			}
			dst := rng.Intn(cfg.Nodes - 1)
			if dst >= src {
				dst++
			}
			ln := 1
			if rng.Intn(2) == 0 {
				ln = 5
			}
			nextID++
			pkt := message.NewPacket(nextID, src, dst, message.Request, ln, net.Cycle())
			col.OnCreate(pkt)
			net.NICs[src].EnqueueSource(pkt)
		}
		net.Step()
	}
	res := IrregularResult{
		AvgLatency: col.MeanLatency(),
		P99Latency: col.Percentile(0.99),
		Throughput: col.Throughput(),
		Promoted:   net.Promoted,
	}
	if created := col.MeasuredCreated(); created > 0 {
		res.DeliveredFrac = float64(col.Samples()) / float64(created)
	}
	res.Saturated = res.AvgLatency != res.AvgLatency || res.AvgLatency > 150 || res.DeliveredFrac < 0.9
	return res, nil
}
