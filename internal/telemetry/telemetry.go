// Package telemetry is the windowed metrics subsystem (DESIGN.md §14):
// fixed-slot counters and gauges registered at build time, sampled every
// W cycles into one preallocated window record, and emitted as
// streaming JSONL, mesh heatmap CSVs and a Prometheus-style text page.
//
// Determinism is the design constraint everything else bends around.
// The per-cycle surface is two calls — Tick (one modulo and a branch)
// and ObserveLatency (three array increments) — neither of which
// touches the allocator, so the simulator's zero-alloc steady state
// survives with telemetry enabled. All real work happens at window
// close, which runs between Steps, and the emitted bytes are built with
// strconv appends into reused buffers — no maps, no reflection, no wall
// clock — so the JSONL is byte-identical across -j and
// checkpoint/restore splits.
//
// Counters are registered as closures over the owning layer's own
// cumulative int64s (router flit/stall counts, per-link flit counts,
// the stats collector's lifetime tallies). The subsystem stores only
// the previous window's value per slot and emits deltas; because the
// layers' counters are part of the checkpoint format, a restored run's
// reads continue exactly where the original's left off.
package telemetry

import "io"

// Options configures a run's telemetry. The zero value disables it
// (Window == 0); sinks are optional and independently attachable.
type Options struct {
	// Window is the sampling period in cycles; records close when the
	// cycle counter reaches a multiple of it. Must be positive to
	// enable telemetry. It is part of the checkpoint config: a resumed
	// run keeps the original window so record boundaries line up.
	Window int64

	// JSONL, when set, receives one JSON record per closed window (and
	// a single meta line before the first). NodeCSV/LinkCSV receive the
	// per-node / per-link utilisation grids, one CSV row per window.
	// Sinks are transient: a resuming driver attaches fresh ones.
	JSONL   io.Writer
	NodeCSV io.Writer
	LinkCSV io.Writer

	// Publish, when set, is called at every window close with the
	// record's JSONL line and the full Prometheus-style text page. The
	// byte slices are reused by the next close — receivers must copy
	// before returning (the obs server does).
	Publish func(cycle int64, jsonl, prom []byte)
}

// Meta identifies the run inside the emitted stream (the first JSONL
// line), so concatenated sweep streams stay self-describing.
type Meta struct {
	Scheme  string
	Pattern string
	Rate    float64
	Nodes   int
}

// slot is one registered scalar metric.
type slot struct {
	name string
	read func() int64
}

// vgauge is a small fixed-length gauge vector sampled whole at window
// close and emitted inline in the JSONL record (e.g. per-VC occupancy).
type vgauge struct {
	name string
	n    int
	read func(i int) int64
}

// grid is a per-node or per-link counter vector; window deltas feed the
// heatmap CSV sinks.
type grid struct {
	n    int
	read func(i int) int64
	prev []int64
}

// record is one closed window, fully materialised: preallocated at
// Freeze, overwritten by every close and streamed to the sinks.
type record struct {
	Window int64 // 0-based window index
	Cycle  int64 // cycle the window closed at
	Span   int64 // cycles covered (== Options.Window except a final partial)

	Counters []int64 // per-window deltas, parallel to CounterNames
	Gauges   []int64 // sampled values, parallel to GaugeNames

	LatSum, LatSamples int64             // per-window latency delta
	Hist               [NumBuckets]int64 // per-window log2 histogram delta

	Vg   [][]int64 // sampled vgauge vectors
	Node []int64   // per-node grid deltas (nil when no grid)
	Link []int64   // per-link grid deltas (nil when no grid)
}

// Metrics is one run's telemetry state. Construct with New, register
// every slot, then Freeze before the first cycle. Not concurrency-safe:
// like the packet pool it belongs to exactly one simulation, and all
// mutation happens in the serial stretches between Steps.
type Metrics struct {
	opt  Options
	meta Meta

	counters []slot
	gauges   []slot
	prev     []int64 // last-close cumulative value per counter

	// Cumulative latency accounting: the histogram accrues through
	// ObserveLatency; sum/count read from the stats collector's
	// lifetime tallies (registered via BindLatency) so the two kinds of
	// accounting cannot drift apart.
	hist                   Hist
	histPrev               [NumBuckets]int64
	latSum, latCnt         func() int64
	latSumPrev, latCntPrev int64

	vgauges []vgauge
	node    grid
	link    grid

	rec     record // the window close last wrote
	windows int64  // closed windows so far
	last    int64  // cycle of the last close

	frozen bool

	buf  []byte // reused JSONL/CSV line builder
	prom []byte // reused Prometheus page builder
	err  error  // first sink write error (sticky)
}

// New creates an empty Metrics for the given options and run identity.
// Options.Window must be positive.
func New(opt Options, meta Meta) *Metrics {
	if opt.Window <= 0 {
		panic("telemetry: window must be positive")
	}
	return &Metrics{opt: opt, meta: meta}
}

// Window reports the sampling period.
func (m *Metrics) Window() int64 { return m.opt.Window }

// Counter registers a cumulative counter slot; the window record carries
// the delta of read() since the previous close. read must be cheap and
// side-effect-free — it runs once per window in serial code.
func (m *Metrics) Counter(name string, read func() int64) {
	m.mustBeOpen()
	m.counters = append(m.counters, slot{name: name, read: read})
}

// Gauge registers an instantaneous gauge slot, sampled at window close.
func (m *Metrics) Gauge(name string, read func() int64) {
	m.mustBeOpen()
	m.gauges = append(m.gauges, slot{name: name, read: read})
}

// BindLatency wires the cumulative latency sum and sample count (the
// stats collector's lifetime tallies); window records carry their
// deltas, from which mean latency per window follows.
func (m *Metrics) BindLatency(sum, count func() int64) {
	m.mustBeOpen()
	m.latSum, m.latCnt = sum, count
}

// VecGauge registers a fixed-length gauge vector emitted inline in the
// JSONL record (index-addressed; keep n small).
func (m *Metrics) VecGauge(name string, n int, read func(i int) int64) {
	m.mustBeOpen()
	m.vgauges = append(m.vgauges, vgauge{name: name, n: n, read: read})
}

// NodeGrid registers the per-node cumulative counter vector whose
// window deltas become the node heatmap CSV rows.
func (m *Metrics) NodeGrid(n int, read func(i int) int64) {
	m.mustBeOpen()
	m.node = grid{n: n, read: read}
}

// LinkGrid registers the per-link cumulative counter vector whose
// window deltas become the link heatmap CSV rows.
func (m *Metrics) LinkGrid(n int, read func(i int) int64) {
	m.mustBeOpen()
	m.link = grid{n: n, read: read}
}

func (m *Metrics) mustBeOpen() {
	if m.frozen {
		panic("telemetry: registration after Freeze")
	}
}

// Freeze fixes the slot set and preallocates everything a window close
// will touch: the prev arrays, the record's slices and the emit
// buffers. Call once, after registration, before the first Tick.
func (m *Metrics) Freeze() {
	if m.frozen {
		panic("telemetry: Freeze called twice")
	}
	m.frozen = true
	m.prev = make([]int64, len(m.counters))
	if m.node.n > 0 {
		m.node.prev = make([]int64, m.node.n)
	}
	if m.link.n > 0 {
		m.link.prev = make([]int64, m.link.n)
	}
	r := &m.rec
	r.Counters = make([]int64, len(m.counters))
	r.Gauges = make([]int64, len(m.gauges))
	r.Vg = make([][]int64, len(m.vgauges))
	for j, vg := range m.vgauges {
		r.Vg[j] = make([]int64, vg.n)
	}
	if m.node.n > 0 {
		r.Node = make([]int64, m.node.n)
	}
	if m.link.n > 0 {
		r.Link = make([]int64, m.link.n)
	}
	m.buf = make([]byte, 0, 1024)
	if m.opt.Publish != nil {
		m.prom = make([]byte, 0, 2048)
	}
}

// ObserveLatency records one delivered packet's latency into the log2
// histogram. Hot path: three increments, no allocation, no branch on
// window position. Nil-safe so ejection hooks can call it
// unconditionally.
func (m *Metrics) ObserveLatency(lat int64) {
	if m == nil {
		return
	}
	m.hist.Observe(lat)
}

// Tick advances the window clock; call once per cycle with the cycle
// counter *after* Step (so the value is the number of completed
// cycles). Closes a window exactly when that count reaches a multiple
// of the period. Nil-safe so run loops can call it unconditionally.
func (m *Metrics) Tick(cycle int64) {
	if m == nil || cycle == 0 || cycle%m.opt.Window != 0 {
		return
	}
	m.close(cycle)
}

// Finish flushes a trailing partial window (run end or abort). Nil-safe.
func (m *Metrics) Finish(cycle int64) {
	if m == nil || cycle <= m.last {
		return
	}
	m.close(cycle)
}

// Err reports the first sink write error, if any. Sink failures never
// perturb the simulation — emission just stops recording.
func (m *Metrics) Err() error { return m.err }

// Windows reports the number of closed windows.
func (m *Metrics) Windows() int64 { return m.windows }

// close materialises one window record, advances the prev state and
// emits to every attached sink. Runs between Steps, when every counter
// a read closure touches is settled for the cycle.
func (m *Metrics) close(cycle int64) {
	if !m.frozen {
		panic("telemetry: Tick before Freeze")
	}
	rec := &m.rec
	rec.Window = m.windows
	rec.Cycle = cycle
	rec.Span = cycle - m.last
	for i, c := range m.counters {
		cur := c.read()
		rec.Counters[i] = cur - m.prev[i]
		m.prev[i] = cur
	}
	for i, g := range m.gauges {
		rec.Gauges[i] = g.read()
	}
	rec.LatSum, rec.LatSamples = 0, 0
	if m.latSum != nil {
		s, n := m.latSum(), m.latCnt()
		rec.LatSum = s - m.latSumPrev
		rec.LatSamples = n - m.latCntPrev
		m.latSumPrev, m.latCntPrev = s, n
	}
	for b := 0; b < NumBuckets; b++ {
		rec.Hist[b] = m.hist.counts[b] - m.histPrev[b]
		m.histPrev[b] = m.hist.counts[b]
	}
	for j, vg := range m.vgauges {
		for i := 0; i < vg.n; i++ {
			rec.Vg[j][i] = vg.read(i)
		}
	}
	snapGrid(&m.node, rec.Node)
	snapGrid(&m.link, rec.Link)
	m.windows++
	m.last = cycle
	m.emit(rec)
}

// snapGrid fills dst with the grid's window deltas and advances prev.
func snapGrid(g *grid, dst []int64) {
	for i := 0; i < g.n; i++ {
		cur := g.read(i)
		dst[i] = cur - g.prev[i]
		g.prev[i] = cur
	}
}
