package telemetry

import (
	"io"
	"strconv"
)

// Emission builds every output by hand with strconv appends into reused
// buffers: no encoding/json (reflection, map iteration), no fmt (interface
// boxing allocates), no wall clock. The byte streams are therefore a pure
// function of the window records, which is what the byte-identical
// determinism tests pin.

// emit streams one freshly closed record to every attached sink.
func (m *Metrics) emit(rec *record) {
	if m.opt.JSONL != nil || m.opt.Publish != nil {
		if rec.Window == 0 && m.opt.JSONL != nil {
			m.buf = m.appendMeta(m.buf[:0])
			m.sink(m.opt.JSONL, m.buf)
		}
		m.buf = m.appendRecord(m.buf[:0], rec)
		m.sink(m.opt.JSONL, m.buf)
		if m.opt.Publish != nil {
			m.prom = m.appendProm(m.prom[:0])
			m.opt.Publish(rec.Cycle, m.buf, m.prom)
		}
	}
	if m.opt.NodeCSV != nil && rec.Node != nil {
		if rec.Window == 0 {
			m.buf = appendCSVHeader(m.buf[:0], "n", m.node.n)
			m.sink(m.opt.NodeCSV, m.buf)
		}
		m.buf = appendCSVRow(m.buf[:0], rec, rec.Node)
		m.sink(m.opt.NodeCSV, m.buf)
	}
	if m.opt.LinkCSV != nil && rec.Link != nil {
		if rec.Window == 0 {
			m.buf = appendCSVHeader(m.buf[:0], "l", m.link.n)
			m.sink(m.opt.LinkCSV, m.buf)
		}
		m.buf = appendCSVRow(m.buf[:0], rec, rec.Link)
		m.sink(m.opt.LinkCSV, m.buf)
	}
}

// sink writes one line to a sink; the first error sticks and silences
// further writes, so a dead sink can never perturb the run.
func (m *Metrics) sink(w io.Writer, b []byte) {
	if w == nil || m.err != nil {
		return
	}
	if _, err := w.Write(b); err != nil {
		m.err = err
	}
}

// appendKey appends `"name":` — names are package-chosen identifiers
// ([a-z0-9_]), so no escaping is needed.
func appendKey(b []byte, name string) []byte {
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

// appendMeta builds the stream's identity line, emitted once before the
// first record (window 0 — a resumed run never re-emits it, so a
// checkpoint-split stream concatenates to the uninterrupted one).
func (m *Metrics) appendMeta(b []byte) []byte {
	b = append(b, `{"meta":{"scheme":"`...)
	b = append(b, m.meta.Scheme...)
	b = append(b, `","pattern":"`...)
	b = append(b, m.meta.Pattern...)
	b = append(b, `","rate":`...)
	b = strconv.AppendFloat(b, m.meta.Rate, 'g', -1, 64)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(m.meta.Nodes), 10)
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, m.opt.Window, 10)
	b = append(b, `,"buckets":`...)
	b = strconv.AppendInt(b, NumBuckets, 10)
	return append(b, '}', '}', '\n')
}

// appendRecord renders one window as a single JSON line. Field order is
// fixed by construction (slice registration order), never map order.
func (m *Metrics) appendRecord(b []byte, rec *record) []byte {
	b = append(b, `{"window":`...)
	b = strconv.AppendInt(b, rec.Window, 10)
	b = append(b, `,"cycle":`...)
	b = strconv.AppendInt(b, rec.Cycle, 10)
	b = append(b, `,"span":`...)
	b = strconv.AppendInt(b, rec.Span, 10)
	b = append(b, `,"counters":{`...)
	for i, c := range m.counters {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, c.name)
		b = strconv.AppendInt(b, rec.Counters[i], 10)
	}
	b = append(b, `},"gauges":{`...)
	for i, g := range m.gauges {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, g.name)
		b = strconv.AppendInt(b, rec.Gauges[i], 10)
	}
	b = append(b, '}')
	for j, vg := range m.vgauges {
		b = append(b, ',')
		b = appendKey(b, vg.name)
		b = appendI64Array(b, rec.Vg[j])
	}
	b = append(b, `,"lat":{"samples":`...)
	b = strconv.AppendInt(b, rec.LatSamples, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, rec.LatSum, 10)
	b = append(b, `,"mean":`...)
	if rec.LatSamples > 0 {
		b = strconv.AppendFloat(b, float64(rec.LatSum)/float64(rec.LatSamples), 'g', -1, 64)
	} else {
		b = append(b, "null"...)
	}
	b = append(b, `,"buckets":`...)
	b = appendI64Array(b, rec.Hist[:])
	return append(b, '}', '}', '\n')
}

func appendI64Array(b []byte, xs []int64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// appendCSVHeader builds "window,cycle,span,p0,p1,…".
func appendCSVHeader(b []byte, prefix string, n int) []byte {
	b = append(b, "window,cycle,span"...)
	for i := 0; i < n; i++ {
		b = append(b, ',')
		b = append(b, prefix...)
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return append(b, '\n')
}

// appendCSVRow builds one heatmap row: window identity plus the grid's
// per-window deltas.
func appendCSVRow(b []byte, rec *record, vals []int64) []byte {
	b = strconv.AppendInt(b, rec.Window, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.Cycle, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, rec.Span, 10)
	for _, v := range vals {
		b = append(b, ',')
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, '\n')
}

// appendProm builds the Prometheus-style text page from cumulative
// state (prom counters are lifetime totals by convention; the JSONL
// records carry the per-window deltas).
func (m *Metrics) appendProm(b []byte) []byte {
	b = append(b, `noc_info{scheme="`...)
	b = append(b, m.meta.Scheme...)
	b = append(b, `",pattern="`...)
	b = append(b, m.meta.Pattern...)
	b = append(b, `"} 1`...)
	b = append(b, '\n')
	b = append(b, "# TYPE noc_cycle gauge\nnoc_cycle "...)
	b = strconv.AppendInt(b, m.last, 10)
	b = append(b, "\n# TYPE noc_windows_total counter\nnoc_windows_total "...)
	b = strconv.AppendInt(b, m.windows, 10)
	b = append(b, '\n')
	for i, c := range m.counters {
		b = append(b, "# TYPE noc_"...)
		b = append(b, c.name...)
		b = append(b, "_total counter\nnoc_"...)
		b = append(b, c.name...)
		b = append(b, "_total "...)
		b = strconv.AppendInt(b, m.prev[i], 10)
		b = append(b, '\n')
	}
	for i, g := range m.gauges {
		b = append(b, "# TYPE noc_"...)
		b = append(b, g.name...)
		b = append(b, " gauge\nnoc_"...)
		b = append(b, g.name...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, m.rec.Gauges[i], 10)
		b = append(b, '\n')
	}
	b = append(b, "# TYPE noc_latency_cycles histogram\n"...)
	var cum int64
	for bk := 0; bk < NumBuckets; bk++ {
		cum += m.hist.counts[bk]
		b = append(b, `noc_latency_cycles_bucket{le="`...)
		if bk == NumBuckets-1 {
			b = append(b, "+Inf"...)
		} else {
			b = strconv.AppendInt(b, BucketUpper(bk)-1, 10)
		}
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, "noc_latency_cycles_sum "...)
	b = strconv.AppendInt(b, m.latSumPrev, 10)
	b = append(b, "\nnoc_latency_cycles_count "...)
	b = strconv.AppendInt(b, m.latCntPrev, 10)
	return append(b, '\n')
}
