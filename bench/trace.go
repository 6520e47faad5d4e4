package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every timestamp of a process; spans store nanoseconds
// since it (monotonic clock).
var epoch = time.Now()

// now returns nanoseconds since the process epoch. The traced pass
// calls it from inside Network.Step (the Controller wrapper and the
// chained Probe of mirror.go); the value lands in the harness's span
// table and never flows into simulator state.
//
//nocvet:ignore dettaint harness timestamp, traced pass only; never reaches simulator state
func now() int64 { return int64(time.Since(epoch)) }

// span is one aggregate span. A million cycles times seven phases do
// not fit as individual spans, so every per-cycle interval of one
// (operation, phase) pair folds into one of these: when the phase first
// started and last ended, how long it was busy in between, how many
// intervals there were, and their log2 distribution.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the workload span
	Name   string `json:"name"`
	// Op is the operation the span belongs to (empty on the workload span).
	Op         string `json:"op,omitempty"`
	FirstStart int64  `json:"first_start_ns"`
	LastEnd    int64  `json:"last_end_ns"`
	BusyNs     int64  `json:"busy_ns"`
	Count      int64  `json:"count"`
	// Hist[i] counts intervals of 2^(i-1) <= ns < 2^i (Hist[0]: 0 ns).
	Hist [40]int64 `json:"log2_hist"`
}

// add folds one interval into the span.
func (s *span) add(start, end int64) {
	if s.Count == 0 {
		s.FirstStart = start
	}
	s.LastEnd = end
	d := end - start
	if d < 0 {
		d = 0
	}
	s.BusyNs += d
	s.Count++
	b := bits.Len64(uint64(d))
	if b >= len(s.Hist) {
		b = len(s.Hist) - 1
	}
	s.Hist[b]++
}

// Span names. Phase spans parent to network.step; its self time is its
// duration minus theirs.
const (
	spWorkload  = "workload"
	spOp        = "op"
	spBuild     = "sim.build"
	spTraffic   = "traffic.tick"
	spEnqueue   = "sim.enqueue"
	spStep      = "network.step"
	spBegin     = "network.begin"
	spFPPre     = "fastpass.precycle"
	spBasePre   = "baselines.precycle"
	spRouterNIC = "router_nic"
	spPost      = "network.postcycle"
	spShift     = "network.shift"
	spProbe     = "invariant.probe"
	spOnEject   = "stats.oneject"
	spMinBD     = "minbd.step"
	spProtocol  = "protocol.tick"
	spTelTick   = "telemetry.tick"
	spTelClose  = "telemetry.close"
	spEncode    = "snapshot.encode"
	spRestore   = "snapshot.restore"
	spAggregate = "campaign.aggregate"
)

// tracer is the traced runner's state: the spans of one traced pass,
// kept in memory until the run ends, and the public counters read at
// each operation's end.
type tracer struct {
	spans []*span
	root  *span
	// cur is the operation span new phase spans attach to.
	cur *span
	c   counters
	// meta, when set, seals mirrored checkpoint blobs (the meta section
	// of the untraced pass's blob, whose encoder sim keeps unexported).
	meta []byte
	// cells are the traced campaign's per-cell host times.
	cells []cellTime
}

type cellTime struct {
	scale float64
	ns    int64
}

// counters are the public counters the per-layer metrics report, summed
// over the operations of a pass.
type counters struct {
	cycles         int64 // simulated cycles stepped through network.Step
	activeRouters  int64 // sum over those cycles of ActiveRouterCount
	minbdCycles    int64
	minbdMallocs   uint64
	linkFlits      int64
	flitsRouted    int64
	switchStalls   int64
	fpPromoted     int64
	fpRejections   int64
	fpHeals        int64
	protoCompleted int64
	protoStalled   int64
	enqueued       int64
	blobs          int64
	blobBytes      int64
	restoreBytes   int64
}

func newTracer(workload string) *tracer {
	t := &tracer{}
	t.root = t.newSpan(spWorkload+":"+workload, nil)
	t.root.FirstStart = now()
	return t
}

func (t *tracer) newSpan(name string, parent *span) *span {
	s := &span{ID: len(t.spans), Parent: -1, Name: name}
	if parent != nil {
		s.Parent = parent.ID
		s.Op = parent.Op
	}
	t.spans = append(t.spans, s)
	return s
}

// beginOp opens an operation span under the workload span.
func (t *tracer) beginOp(name string) *span {
	s := t.newSpan(spOp, t.root)
	s.Op = name
	s.FirstStart = now()
	t.cur = s
	return s
}

// endOp closes the operation span as one interval.
func (t *tracer) endOp(s *span) {
	s.add(s.FirstStart, now())
	t.cur = nil
}

// finish closes the workload span.
func (t *tracer) finish() { t.root.add(t.root.FirstStart, now()) }

// sum totals busy time and interval count over every span of a name.
func (t *tracer) sum(name string) (busyNs, count int64) {
	for _, s := range t.spans {
		if s.Name == name {
			busyNs += s.BusyNs
			count += s.Count
		}
	}
	return busyNs, count
}

// traceFile is the -trace-out document: one entry per traced workload.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []*span `json:"spans"`
}

// writeTrace writes the collected spans of a run.
func writeTrace(path string, files []traceFile) error {
	data, err := json.Marshal(files)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
