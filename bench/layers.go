package main

import (
	"math"
	"sort"
)

// traceData is everything a traced run collected: the traced pass's
// spans and counters, its operations' simulated statistics, the
// isolated probes, and the host-side numbers around the pass.
type traceData struct {
	t   *tracer
	ops []opResult

	untracedWallNs, tracedWallNs int64
	numGC                        uint32
	gcPauseNs                    uint64

	shard2Ratio  float64 // bigmesh_32x32 only
	j2Efficiency float64 // campaign_grid only

	routerOcc0, routerOccHalf, routerOccFull float64
	nicInjectNs, nicConsumeNs                float64
	parallelNs                               float64
}

// layerMetric is one per-layer metric: where it comes from (T = traced
// pass spans, C = public counters, P = isolated probe), which
// end-to-end metric it should move and on which workloads — written
// down before measuring, so a later PR's claim can be checked against
// it — and how to compute it. None is gated. A metric reads 0 on a
// workload where its layer does no work (or, for the two re-run ratios,
// where the re-run is not made).
type layerMetric struct {
	name, unit, better string
	source             string
	moves              string
	on                 []string
	value              func(d *traceData) float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perInterval is a span name's busy time per recorded interval.
func perInterval(name string) func(*traceData) float64 {
	return func(d *traceData) float64 {
		busy, n := d.t.sum(name)
		return ratio(float64(busy), float64(n))
	}
}

// perCycle is a span name's busy time per Network.Step cycle of the pass.
func perCycle(name string) func(*traceData) float64 {
	return func(d *traceData) float64 {
		busy, _ := d.t.sum(name)
		return ratio(float64(busy), float64(d.t.c.cycles))
	}
}

// weightedLatency is the sample-weighted mean over operations of a
// per-operation latency statistic (operations without samples skipped).
func weightedLatency(d *traceData, pick func(opResult) float64) float64 {
	var sum, n float64
	for _, o := range d.ops {
		v := pick(o)
		if o.samples == 0 || math.IsNaN(v) {
			continue
		}
		sum += v * float64(o.samples)
		n += float64(o.samples)
	}
	return ratio(sum, n)
}

// cellMs returns the traced campaign cells' host times, ascending.
func cellMs(d *traceData) []float64 {
	ms := make([]float64, len(d.t.cells))
	for i, c := range d.t.cells {
		ms[i] = float64(c.ns) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

const (
	onFig7     = "fig7_uniform"
	onLowload  = "lowload_16x16"
	onApps     = "fig10_apps"
	onBigmesh  = "bigmesh_32x32"
	onCkpt     = "checkpoint_telemetry"
	onCampaign = "campaign_grid"
)

// layerMetrics is the per-layer table, in report order. Names here are
// the names BENCHMARK.json lists and later issues use.
func layerMetrics() []layerMetric {
	c := func(f func(c *counters) float64) func(*traceData) float64 {
		return func(d *traceData) float64 { return f(&d.t.c) }
	}
	return []layerMetric{
		{"traffic.tick_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onLowload}, perInterval(spTraffic)},

		{"sim.build_ms", "ms", "lower", "T", "setup_s", []string{onBigmesh}, func(d *traceData) float64 {
			busy, _ := d.t.sum(spBuild)
			return float64(busy) / 1e6
		}},
		{"sim.enqueue_ns_per_pkt", "ns", "lower", "T", "wall_s", []string{onFig7}, func(d *traceData) float64 {
			busy, _ := d.t.sum(spEnqueue)
			return ratio(float64(busy), float64(d.t.c.enqueued))
		}},

		{"network.step_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onBigmesh, onLowload}, perCycle(spStep)},
		{"network.begin_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onLowload, onCampaign}, perCycle(spBegin)},
		{"network.shift_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onBigmesh, onLowload}, perCycle(spShift)},
		{"network.postcycle_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onLowload}, perCycle(spPost)},
		{"network.active_routers_avg", "count", "lower", "C", "wall_s", []string{onLowload, onBigmesh},
			c(func(c *counters) float64 { return ratio(float64(c.activeRouters), float64(c.cycles)) })},
		{"network.link_flits", "count", "higher", "C", "delivered_pkts_per_s", []string{onFig7},
			c(func(c *counters) float64 { return float64(c.linkFlits) })},
		{"network.shard2_wall_ratio", "ratio", "lower", "T", "wall_s", []string{onBigmesh},
			func(d *traceData) float64 { return d.shard2Ratio }},

		{"router_nic.ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onFig7, onApps, onBigmesh}, perCycle(spRouterNIC)},
		{"router_nic.ns_per_active_router", "ns", "lower", "T", "sim_cycles_per_s", []string{onFig7, onApps, onBigmesh}, func(d *traceData) float64 {
			busy, _ := d.t.sum(spRouterNIC)
			return ratio(float64(busy), float64(d.t.c.activeRouters))
		}},

		{"router.step_ns_occ0", "ns", "lower", "P", "wall_s", []string{onLowload}, func(d *traceData) float64 { return d.routerOcc0 }},
		{"router.step_ns_occ_half", "ns", "lower", "P", "wall_s", []string{onFig7, onApps}, func(d *traceData) float64 { return d.routerOccHalf }},
		{"router.step_ns_occ_full", "ns", "lower", "P", "wall_s", []string{onFig7, onApps}, func(d *traceData) float64 { return d.routerOccFull }},
		{"router.flits_routed", "count", "higher", "C", "delivered_pkts_per_s", []string{onFig7},
			c(func(c *counters) float64 { return float64(c.flitsRouted) })},
		{"router.switch_stalls", "count", "lower", "C", "delivered_pkts_per_s", []string{onFig7},
			c(func(c *counters) float64 { return float64(c.switchStalls) })},
		{"router.sa_win_ratio", "ratio", "higher", "C", "delivered_pkts_per_s", []string{onFig7},
			c(func(c *counters) float64 { return ratio(float64(c.flitsRouted), float64(c.flitsRouted+c.switchStalls)) })},

		{"nic.inject_ns_per_pkt", "ns", "lower", "P", "wall_s", []string{onApps}, func(d *traceData) float64 { return d.nicInjectNs }},
		{"nic.consume_ns_per_pkt", "ns", "lower", "P", "wall_s", []string{onApps}, func(d *traceData) float64 { return d.nicConsumeNs }},

		{"fastpass.precycle_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onLowload}, perInterval(spFPPre)},
		{"baselines.precycle_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onFig7, onApps}, perInterval(spBasePre)},
		{"fastpass.promoted", "count", "higher", "C", "delivered_pkts_per_s", []string{onFig7},
			c(func(c *counters) float64 { return float64(c.fpPromoted) })},
		{"fastpass.rejections", "count", "lower", "C", "delivered_pkts_per_s", []string{onFig7},
			c(func(c *counters) float64 { return float64(c.fpRejections) })},
		{"fastpass.heals", "count", "higher", "C", "wall_s", []string{onCampaign},
			c(func(c *counters) float64 { return float64(c.fpHeals) })},

		{"minbd.step_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onFig7}, perInterval(spMinBD)},
		{"minbd.allocs_per_kcycle", "1/kcycle", "lower", "T", "allocs_per_kcycle", []string{onFig7},
			c(func(c *counters) float64 { return ratio(float64(c.minbdMallocs)*1000, float64(c.minbdCycles)) })},

		{"protocol.tick_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onApps}, perInterval(spProtocol)},
		{"protocol.completed", "count", "higher", "C", "sim_cycles_per_s", []string{onApps},
			c(func(c *counters) float64 { return float64(c.protoCompleted) })},
		{"protocol.stalled", "count", "lower", "C", "sim_cycles_per_s", []string{onApps},
			c(func(c *counters) float64 { return float64(c.protoStalled) })},

		{"stats.oneject_ns_per_pkt", "ns", "lower", "T", "delivered_pkts_per_s", []string{onFig7}, perInterval(spOnEject)},
		{"stats.avg_latency_cycles", "cycles", "lower", "C", "delivered_pkts_per_s", []string{onFig7},
			func(d *traceData) float64 { return weightedLatency(d, func(o opResult) float64 { return o.avgLat }) }},
		{"stats.p99_latency_cycles", "cycles", "lower", "C", "delivered_pkts_per_s", []string{onFig7},
			func(d *traceData) float64 { return weightedLatency(d, func(o opResult) float64 { return o.p99Lat }) }},

		{"telemetry.tick_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onCkpt}, func(d *traceData) float64 {
			tick, n := d.t.sum(spTelTick)
			closeNs, m := d.t.sum(spTelClose)
			return ratio(float64(tick+closeNs), float64(n+m))
		}},
		{"telemetry.close_us_per_window", "us", "lower", "T", "wall_s", []string{onCkpt}, func(d *traceData) float64 {
			busy, n := d.t.sum(spTelClose)
			return ratio(float64(busy)/1e3, float64(n))
		}},

		{"snapshot.encode_ms_per_blob", "ms", "lower", "T", "wall_s", []string{onCkpt}, func(d *traceData) float64 {
			busy, n := d.t.sum(spEncode)
			return ratio(float64(busy)/1e6, float64(n))
		}},
		{"snapshot.encode_mb_per_s", "MB/s", "higher", "T", "wall_s", []string{onCkpt}, func(d *traceData) float64 {
			busy, _ := d.t.sum(spEncode)
			return ratio(float64(d.t.c.blobBytes)/1e6, float64(busy)/1e9)
		}},
		{"snapshot.blob_kb", "kB", "lower", "C", "alloc_mb", []string{onCkpt},
			c(func(c *counters) float64 { return ratio(float64(c.blobBytes)/1e3, float64(c.blobs)) })},
		{"snapshot.restore_ms", "ms", "lower", "T", "wall_s", []string{onCkpt}, func(d *traceData) float64 {
			busy, _ := d.t.sum(spRestore)
			return float64(busy) / 1e6
		}},
		{"snapshot.restore_mb_per_s", "MB/s", "higher", "T", "wall_s", []string{onCkpt}, func(d *traceData) float64 {
			busy, _ := d.t.sum(spRestore)
			return ratio(float64(d.t.c.restoreBytes)/1e6, float64(busy)/1e9)
		}},

		{"parallel.map_ns_per_task", "ns", "lower", "P", "wall_s", []string{onCampaign}, func(d *traceData) float64 { return d.parallelNs }},
		{"parallel.j2_efficiency", "ratio", "higher", "T", "wall_s", []string{onCampaign}, func(d *traceData) float64 { return d.j2Efficiency }},
		{"campaign.cell_ms_p50", "ms", "lower", "T", "wall_s", []string{onCampaign}, func(d *traceData) float64 {
			ms := cellMs(d)
			if len(ms) == 0 {
				return 0
			}
			return ms[len(ms)/2]
		}},
		{"campaign.cell_ms_max", "ms", "lower", "T", "wall_s", []string{onCampaign}, func(d *traceData) float64 {
			ms := cellMs(d)
			if len(ms) == 0 {
				return 0
			}
			return ms[len(ms)-1]
		}},
		{"campaign.aggregate_ms", "ms", "lower", "T", "wall_s", []string{onCampaign}, func(d *traceData) float64 {
			busy, _ := d.t.sum(spAggregate)
			return float64(busy) / 1e6
		}},

		{"faults.cell_cost_ratio", "ratio", "lower", "T", "wall_s", []string{onCampaign}, func(d *traceData) float64 {
			var faulty, clean, nf, nc float64
			for _, cell := range d.t.cells {
				if cell.scale > 0 {
					faulty += float64(cell.ns)
					nf++
				} else {
					clean += float64(cell.ns)
					nc++
				}
			}
			return ratio(ratio(faulty, nf), ratio(clean, nc))
		}},
		{"invariant.probe_ns_per_cycle", "ns", "lower", "T", "wall_s", []string{onCampaign}, perInterval(spProbe)},

		{"host.gc_cycles", "count", "lower", "T", "wall_s", []string{onFig7},
			func(d *traceData) float64 { return float64(d.numGC) }},
		{"host.gc_pause_ms", "ms", "lower", "T", "wall_s", []string{onFig7},
			func(d *traceData) float64 { return float64(d.gcPauseNs) / 1e6 }},
		{"host.trace_overhead_pct", "%", "lower", "T", "wall_s", []string{onLowload},
			func(d *traceData) float64 {
				return 100 * (ratio(float64(d.tracedWallNs), float64(d.untracedWallNs)) - 1)
			}},
	}
}
