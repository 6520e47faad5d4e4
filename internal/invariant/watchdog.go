// Package invariant implements runtime watchdogs over a live network:
// packet conservation, credit conservation, starvation bounds, and a
// deadlock detector that extracts the waits-for cycle from wedged
// router state and renders a structured report.
//
// The watchdogs exist to turn the paper's central claim — FastPass is
// deadlock-free where adaptive baselines are not — from an assertion
// into a measurement: under protocol traffic at saturation the deadlock
// watchdog trips on the baselines and never on FastPass, and under
// injected hardware faults the conservation checks prove no packet is
// silently lost.
//
// Cost discipline: the watchdog samples on a stride (default every 64
// cycles) and the sampling path allocates nothing — live-set maps are
// clear()ed and reused, visitor closures are stored once at Attach, and
// scratch slices are loop-cleared. Only the cold path (a violation
// actually tripping, which ends the run) is allowed to allocate while
// it builds its report.
package invariant

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/message"
	"repro/internal/network"
	// Imported directly, not only through network: the compiler inlines
	// router's iterator and ring-backed accessors (OccupiedVCs, VC.Len,
	// EntryAt) only into packages that import it by name — without this
	// every sample heap-allocates its loop body.
	_ "repro/internal/router"
	"repro/internal/spare"
	"repro/internal/topology"
)

// Kind classifies a violation.
type Kind int

// Violation kinds. CreditLeak is the only non-fatal kind: credit-loss
// fault injection manufactures leaks on purpose, so the watchdog counts
// them instead of aborting the run.
const (
	Conservation Kind = iota
	CreditLeak
	Starvation
	Deadlock
	ProgressStall
)

var kindNames = [...]string{"conservation", "credit-leak", "starvation", "deadlock", "progress-stall"}

// String names the kind for reports.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Fatal reports whether a violation of this kind should abort the run.
func (k Kind) Fatal() bool { return k != CreditLeak }

// Violation is one tripped invariant.
type Violation struct {
	Kind   Kind
	Cycle  int64
	Report string
	// Packets lists the packet IDs implicated (starved set, deadlock
	// cycle members, conservation leftovers), ascending.
	Packets []uint64
	// Enqueued/Consumed snapshot the traffic accounting at trip time —
	// the delivered-fraction-at-trip that reliability campaigns bucket
	// their MTTF distributions on.
	Enqueued int64
	Consumed int64
}

// DeliveredFrac returns the fraction of enqueued packets consumed by
// trip time (1 when nothing was enqueued: an idle network has delivered
// everything it was given).
func (v Violation) DeliveredFrac() float64 {
	if v.Enqueued == 0 {
		return 1
	}
	return float64(v.Consumed) / float64(v.Enqueued)
}

// Options tunes the watchdog. The zero value means "use defaults";
// defaults are sized so no healthy run of ordinary length (≤ a few
// hundred thousand cycles) can false-positive.
type Options struct {
	// Stride is the sampling period in cycles (default 64).
	Stride int
	// DeadlockWindow is how many cycles of zero global progress —
	// while work is outstanding — trigger waits-for extraction
	// (default 8192).
	DeadlockWindow int64
	// StarveBound is the per-packet blocked-time bound in cycles
	// (default 1<<20).
	StarveBound int64
	// LeakBound is how long a downstream VC claim may persist with no
	// justification (no allocated head, nothing on the wire, no credit
	// in flight, downstream empty) before it is reported as a credit
	// leak (default 1<<19).
	LeakBound int64
}

func (o Options) withDefaults() Options {
	if o.Stride <= 0 {
		o.Stride = 64
	}
	if o.DeadlockWindow <= 0 {
		o.DeadlockWindow = 8192
	}
	if o.StarveBound <= 0 {
		o.StarveBound = 1 << 20
	}
	if o.LeakBound <= 0 {
		o.LeakBound = 1 << 19
	}
	return o
}

// ParseSpec parses a -watchdog flag value. "off" (or "") disables;
// "on" enables with defaults; otherwise a comma-separated list of
// key=value pairs over stride, deadlock, starve, leak.
func ParseSpec(spec string) (Options, bool, error) {
	var o Options
	switch spec {
	case "", "off", "none":
		return o, false, nil
	case "on", "default":
		return o.withDefaults(), true, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return o, false, fmt.Errorf("invariant: watchdog clause %q is not key=value", kv)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil || n <= 0 {
			return o, false, fmt.Errorf("invariant: watchdog %s=%q is not a positive integer", k, v)
		}
		switch strings.TrimSpace(k) {
		case "stride":
			o.Stride = int(n)
		case "deadlock":
			o.DeadlockWindow = n
		case "starve":
			o.StarveBound = n
		case "leak":
			o.LeakBound = n
		default:
			return o, false, fmt.Errorf("invariant: unknown watchdog key %q", k)
		}
	}
	return o.withDefaults(), true, nil
}

// Held is implemented by scheme controllers that hold packets outside
// router buffers and link pipelines (FastPass flights and regeneration
// queue, Pitstop pits). The conservation check counts them as
// in-flight.
type Held interface {
	ForEachHeld(func(*message.Packet))
}

// Watchdog samples a network's state and records violations. Attach it
// once after the network (and its controller) is built; it installs
// itself as the network's end-of-step probe.
type Watchdog struct {
	net  *network.Network
	opts Options
	held Held // the controller, when it holds packets; else nil

	violations []Violation
	fatal      bool
	deadlocked bool
	leaks      int

	numPorts int
	resStep  int // VCs per (node, port) resource stride: max(netVCs, NumClasses)
	netVCs   int

	// Sampling scratch, preallocated/reused so samples never allocate.
	countdown int
	live      map[uint64]*message.Packet
	noteLive  func(*message.Packet) // stored closure over live
	allocMark []bool                // per resource: an allocated head targets it
	suspect   []int64               // per resource: cycle first seen claimed-unjustified; -1 clear; -2 reported
	starved   []*message.Packet     // cold-path collection, reused

	lastProgress      int64 // FlitsOnLinks + ΣConsumed at last sample
	lastProgressCycle int64

	// sampEnq/sampCons hold the current sample's traffic accounting so
	// record() can stamp delivered-fraction-at-trip into each Violation.
	// Scratch: always rewritten by sample() before any record().
	sampEnq  int64
	sampCons int64
}

// Attach builds a watchdog over n and installs it as n's probe. opts
// zero-values fall back to defaults. Packets held by n's controller,
// when it implements Held, count as in flight.
func Attach(n *network.Network, opts Options) *Watchdog {
	held, _ := n.Controller.(Held)
	w := &Watchdog{
		held:     held,
		net:      n,
		opts:     opts.withDefaults(),
		numPorts: n.Mesh.NumPorts(),
		netVCs:   n.Routers[0].Cfg.NetVCs(),
		live:     spareLive.Take(256),
	}
	w.resStep = w.netVCs
	if int(message.NumClasses) > w.resStep {
		w.resStep = int(message.NumClasses)
	}
	nres := n.Mesh.NumNodes() * w.numPorts * w.resStep
	w.allocMark = spareMarks.Take(nres)
	w.suspect = spareSuspects.Take(nres)
	for i := range w.suspect {
		w.suspect[i] = -1
	}
	w.noteLive = func(p *message.Packet) { w.live[p.ID] = p }
	w.countdown = w.opts.Stride
	n.Probe = w.probe
	return w
}

// The stores Attach takes its live set and per-resource arrays from and
// Release returns them to.
var (
	spareLive     spare.Maps[uint64, *message.Packet]
	spareMarks    spare.Store[bool]
	spareSuspects spare.Store[int64]
)

// Release hands the watchdog's live set and per-resource arrays to a
// later Attach in the process (a nil watchdog has none). Its
// violations stay readable; nothing may sample w afterwards.
func (w *Watchdog) Release() {
	if w == nil {
		return
	}
	spareLive.Put(w.live)
	spareMarks.Put(w.allocMark)
	spareSuspects.Put(w.suspect)
	w.live, w.allocMark, w.suspect = nil, nil, nil
}

// Tripped reports whether any fatal violation has been recorded (false
// on a nil watchdog). The run loop polls it each cycle and stops when it
// turns true.
func (w *Watchdog) Tripped() bool { return w != nil && w.fatal }

// Deadlocked reports whether a waits-for cycle was found.
func (w *Watchdog) Deadlocked() bool { return w.deadlocked }

// Leaks reports the number of credit leaks recorded (non-fatal).
func (w *Watchdog) Leaks() int { return w.leaks }

// Violations returns everything recorded so far, in trip order.
func (w *Watchdog) Violations() []Violation { return w.violations }

// Report renders all recorded violations as one diagnostic string, or
// "" when the run is clean.
func (w *Watchdog) Report() string {
	if len(w.violations) == 0 {
		return ""
	}
	var b strings.Builder
	for i, v := range w.violations {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(v.Report)
	}
	return b.String()
}

// rid maps (node, port, vc) to a dense resource index.
func (w *Watchdog) rid(node int, port topology.Direction, vc int) int {
	return (node*w.numPorts+int(port))*w.resStep + vc
}

// probe is the network's end-of-step hook: a countdown on the hot path,
// a full sample every Stride cycles.
func (w *Watchdog) probe() {
	if w.fatal {
		return
	}
	w.countdown--
	if w.countdown > 0 {
		return
	}
	w.countdown = w.opts.Stride
	w.sample()
}

// sample runs every watchdog check once. It must not allocate.
func (w *Watchdog) sample() {
	n := w.net
	cycle := n.Cycle()

	// Walk every router buffer once: build the live set, the
	// allocated-head marks for the credit audit, and the worst blocked
	// age for the starvation bound.
	for i := range w.allocMark {
		w.allocMark[i] = false
	}
	clear(w.live)
	var worstBlocked int64
	starving := false
	for _, r := range n.Routers {
		for p, v := range r.OccupiedVCs(topology.Local) {
			vcq := r.VCFor(p, v)
			for i := 0; i < vcq.Len(); i++ {
				e := vcq.EntryAt(i)
				w.live[e.Pkt.ID] = e.Pkt
				if e.Allocated {
					w.allocMark[w.rid(r.ID, e.Out(), int(e.OutVC))] = true
				}
				if i == 0 {
					if blocked := cycle - e.LastMove; blocked > worstBlocked {
						worstBlocked = blocked
					}
				}
			}
		}
	}
	n.ForEachTransit(w.noteLive)
	var enqueued, consumed int64
	for _, nc := range n.NICs {
		nc.ForEachResident(w.noteLive)
		enqueued += nc.Enqueued
		for c := range nc.Consumed {
			consumed += nc.Consumed[c]
		}
		// A packet parked in an ejection queue is delivered but not yet
		// consumed; a wedged consumer starves it there.
		for c := message.Class(0); c < message.NumClasses; c++ {
			if head := nc.PeekEject(c); head != nil {
				if blocked := cycle - head.EjectTime; blocked > worstBlocked {
					worstBlocked = blocked
				}
			}
		}
	}
	if w.held != nil {
		w.held.ForEachHeld(w.noteLive)
	}
	w.sampEnq, w.sampCons = enqueued, consumed

	// Packet conservation: every packet ever enqueued is either
	// consumed or findable somewhere right now.
	if inFlight := int64(len(w.live)); enqueued != consumed+inFlight {
		w.tripConservation(cycle, enqueued, consumed, inFlight)
		return
	}

	// Credit conservation: a claimed downstream VC must be justified by
	// an allocated head, a flit on the wire, a credit in flight back,
	// or downstream occupancy. Persistent unjustified claims are leaks.
	w.auditCredits(cycle)

	// Starvation bound.
	if worstBlocked > w.opts.StarveBound {
		starving = true
	}

	// Global progress: flit movement or consumption since last sample.
	// Enqueues deliberately do not count — an unbounded source feeding
	// a wedged network would otherwise mask the deadlock forever.
	progress := n.FlitsOnLinks + consumed
	if progress != w.lastProgress {
		w.lastProgress = progress
		w.lastProgressCycle = cycle
	} else if len(w.live) > 0 && cycle-w.lastProgressCycle >= w.opts.DeadlockWindow {
		w.tripStall(cycle, true)
		return
	}
	if starving {
		w.tripStall(cycle, false)
	}
}

// auditCredits scans every (router, out port, vc) claim. Justified
// claims and free VCs reset the suspect clock; an unjustified claim
// older than LeakBound is recorded once as a credit leak.
func (w *Watchdog) auditCredits(cycle int64) {
	n := w.net
	for _, r := range n.Routers {
		for p := topology.Direction(1); int(p) < w.numPorts; p++ {
			link := r.OutLinkID(p)
			if link < 0 {
				continue
			}
			lk := n.ChannelLink(link)
			dst := n.Routers[lk.Dst]
			for vc := 0; vc < w.netVCs; vc++ {
				id := w.rid(r.ID, p, vc)
				if r.DownstreamVCFree(p, vc) {
					w.suspect[id] = -1
					continue
				}
				justified := w.allocMark[id] ||
					n.ChannelCarries(link, vc) ||
					n.ChannelCreditPending(link, vc) ||
					dst.VCFor(lk.DstPort, vc).Len() > 0
				switch {
				case justified:
					w.suspect[id] = -1
				case w.suspect[id] == -1:
					w.suspect[id] = cycle
				case w.suspect[id] >= 0 && cycle-w.suspect[id] > w.opts.LeakBound:
					w.leaks++
					w.record(Violation{
						Kind:  CreditLeak,
						Cycle: cycle,
						Report: fmt.Sprintf(
							"invariant: credit leak at cycle %d: router %d port %v vc %d claimed with no packet, wire flit, pending credit or downstream occupancy since cycle %d",
							cycle, r.ID, p, vc, w.suspect[id]),
					})
					w.suspect[id] = -2 // reported; stay quiet
				}
			}
		}
	}
}

// tripConservation records a fatal packet-accounting violation.
func (w *Watchdog) tripConservation(cycle, enqueued, consumed, inFlight int64) {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: packet conservation violated at cycle %d: %d enqueued != %d consumed + %d in flight (delta %+d)",
		cycle, enqueued, consumed, inFlight, enqueued-(consumed+inFlight))
	ids := slices.Sorted(maps.Keys(w.live))
	w.record(Violation{Kind: Conservation, Cycle: cycle, Report: b.String(), Packets: ids})
}

// record appends a violation — stamped with the current sample's
// traffic accounting — and latches fatality.
func (w *Watchdog) record(v Violation) {
	v.Enqueued, v.Consumed = w.sampEnq, w.sampCons
	w.violations = append(w.violations, v)
	if v.Kind.Fatal() {
		w.fatal = true
	}
	if v.Kind == Deadlock {
		w.deadlocked = true
	}
}
