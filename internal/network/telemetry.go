package network

import (
	"repro/internal/router"
	"repro/internal/telemetry"
)

// Telemetry registers the network's slots on a run's metrics, in their
// fixed JSONL order: link and router flit counters, the population
// gauges, per-VC occupancy and the node and link heatmap grids. Every
// slot reads a count the network keeps anyway.
func (n *Network) Telemetry(m *telemetry.Metrics) {
	// sum totals a per-router count over the mesh.
	sum := func(f func(*router.Router) int64) func() int64 {
		return func() (t int64) {
			for _, r := range n.Routers {
				t += f(r)
			}
			return t
		}
	}
	m.Counter("link_flits", func() int64 { return n.FlitsOnLinks })
	m.Counter("flits_routed", sum(func(r *router.Router) int64 { return r.FlitsRouted }))
	m.Counter("switch_stalls", sum(func(r *router.Router) int64 { return r.SwitchStalls }))
	m.Gauge("resident", sum(func(r *router.Router) int64 { return int64(r.Resident()) }))
	m.Gauge("source_backlog", func() (t int64) {
		for _, nc := range n.NICs {
			t += int64(nc.TotalSourceDepth())
		}
		return t
	})
	m.VecGauge("vc_occ", n.Routers[0].Cfg.NetVCs(), func(v int) (t int64) {
		for _, r := range n.Routers {
			t += int64(r.VCOccupancy(v))
		}
		return t
	})
	m.NodeGrid(len(n.Routers), func(i int) int64 { return n.Routers[i].FlitsRouted })
	m.LinkGrid(n.NumChannels(), n.LinkFlits)
}
