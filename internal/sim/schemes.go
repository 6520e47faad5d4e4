// Package sim is the experiment harness: it builds any evaluated scheme
// over the common substrate, runs the warmup → measure → drain
// methodology on synthetic traffic, bisects saturation throughput, and
// drives the protocol engine for application experiments. Every figure
// and table of the paper is regenerated through this package.
package sim

import (
	"cmp"
	"fmt"
	"math"

	"repro/internal/baselines/drain"
	"repro/internal/baselines/escapevc"
	"repro/internal/baselines/pitstop"
	"repro/internal/baselines/spin"
	"repro/internal/baselines/swap"
	"repro/internal/baselines/tfc"
	"repro/internal/fastpass"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/minbd"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Scheme identifies a flow-control/deadlock-freedom design under test.
type Scheme int

// The eight evaluated schemes (Table II).
const (
	FastPass Scheme = iota
	EscapeVC
	SPIN
	SWAP
	DRAIN
	Pitstop
	MinBD
	TFC
	numSchemes
)

var schemeNames = [...]string{"FastPass", "EscapeVC", "SPIN", "SWAP", "DRAIN", "Pitstop", "MinBD", "TFC"}

// String returns the scheme name as the paper spells it.
func (s Scheme) String() string {
	if s < 0 || s >= numSchemes {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// Schemes lists every scheme.
func Schemes() []Scheme {
	out := make([]Scheme, numSchemes)
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// ParseScheme resolves a name.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scheme %q", name)
}

// UsesVNs reports whether the scheme needs virtual networks for
// protocol-level deadlock freedom (Fig. 10's "(VN=6)" annotations).
func (s Scheme) UsesVNs() bool { return s != FastPass && s != Pitstop }

// DefaultVCs is the Table II VC count per input buffer (per VN for the
// VN-based schemes).
func (s Scheme) DefaultVCs() int {
	if s == FastPass {
		return 4
	}
	return 2
}

// SupportsProtocol reports whether the scheme can run coherence traffic
// in our harness (MinBD's deflection network carries only synthetic
// loads, matching its absence from Figs. 10 and 12).
func (s Scheme) SupportsProtocol() bool { return s != MinBD }

// Options selects and sizes a scheme instance.
type Options struct {
	Scheme Scheme
	W, H   int
	VCs    int // 0 → scheme default
	// EjectCap is each NIC's per-class ejection-queue depth in packets
	// (0 → 4). MinBD, which has no NICs, reads the same value as the
	// flits each router ejects per cycle (its own default is 1).
	EjectCap int
	Seed     int64

	// Scheme knobs (0 → Table II defaults). Tests shrink DrainPeriod so
	// runs finish quickly.
	DrainPeriod   int64
	SwapDuty      int64
	SpinThreshold int64
	FastPassK     int

	// FastPass ablation knobs (see fastpass.Params).
	FPScanInjectionOnly bool
	FPDropOnReject      bool

	// FPHealing enables FastPass's online lane re-derivation: a
	// permanent link failure drains the lanes, re-runs the §III-F
	// derivation on the surviving graph and resumes (fastpass.Params.
	// Healing). Campaigns compare FastPass-static against
	// FastPass-healing by toggling this over the same fault plan.
	FPHealing bool

	// TraceCapacity, when positive, attaches an event recorder keeping
	// that many recent events (Instance.Trace), at most MaxTraceCapacity.
	TraceCapacity int

	// Faults, when non-empty, is a faults.ParsePlan spec; Build attaches
	// a deterministic injector seeded from the plan and Options.Seed.
	// Ignored for MinBD (separate packet model). Invalid specs panic in
	// Build; Validate rejects them.
	Faults string
	// FaultScale, when positive, multiplies every rate in the fault
	// plan (resilience sweeps reuse one spec across intensities); 0
	// leaves the plan as written, and Validate rejects the rest.
	FaultScale float64

	// Watchdog, when non-empty, is an invariant.ParseSpec value ("on",
	// "off", or tuning clauses); the zero value keeps watchdogs off so
	// existing callers are unaffected. Ignored for MinBD.
	Watchdog string

	// Shards is read by nothing: a run steps its mesh on one goroutine
	// (DESIGN.md §12). It stays because the benchmark still sets it.
	Shards int
}

// MaxTraceCapacity bounds Options.TraceCapacity: the recorder reserves
// its events up front, 64 bytes each, so the bound is 64 MiB.
const MaxTraceCapacity = 1 << 20

func (o *Options) setDefaults() {
	o.VCs = cmp.Or(o.VCs, o.Scheme.DefaultVCs())
	o.EjectCap = cmp.Or(o.EjectCap, 4)
	o.W = cmp.Or(o.W, 8)
	o.H = cmp.Or(o.H, o.W)
}

// Validate reports, as an error a command can print, what Build or the
// first cycle would panic on: an unknown scheme, a mesh under 2×2, a
// non-positive ejection capacity, fewer VCs than the scheme needs or
// more per input port than the router's one-word masks hold (VNs × VCs
// ≤ 64 — 64 VCs for the one-VN schemes, 10 per VN for the six-VN
// baselines), an unparseable fault plan or watchdog spec, a FastPass
// slot K shorter than the mesh's round trip, healing on a scheme other
// than FastPass, a trace past MaxTraceCapacity events (Build would
// reserve it) — and a negative or NaN fault scale, which Build would
// silently run at full rate. Zero fields stand for their defaults.
func (o Options) Validate() error {
	if o.Scheme < 0 || o.Scheme >= numSchemes {
		return fmt.Errorf("sim: unknown scheme %v", o.Scheme)
	}
	o.setDefaults()
	if o.W < 2 || o.H < 2 || o.EjectCap < 1 {
		return fmt.Errorf("sim: need a mesh of at least 2x2 and a positive ejection capacity, have %dx%d and %d", o.W, o.H, o.EjectCap)
	}
	if max(o.W, o.H) > topology.MaxSide {
		return fmt.Errorf("sim: a %dx%d mesh is past the largest side of %d", o.W, o.H, topology.MaxSide)
	}
	if !(o.FaultScale >= 0) || math.IsInf(o.FaultScale, 1) {
		return fmt.Errorf("sim: fault scale %v must be a finite non-negative number", o.FaultScale)
	}
	if o.TraceCapacity > MaxTraceCapacity {
		return fmt.Errorf("sim: trace capacity %d events exceeds the bound of %d", o.TraceCapacity, MaxTraceCapacity)
	}
	fewest, most := 1, 64
	if o.Scheme == EscapeVC {
		fewest = 2 // escape + adaptive
	}
	if o.Scheme.UsesVNs() {
		most /= int(message.NumClasses)
	}
	if o.Scheme != MinBD && (o.VCs < fewest || o.VCs > most) {
		return fmt.Errorf("sim: %v takes %d to %d VCs, not %d", o.Scheme, fewest, most, o.VCs)
	}
	plan, err := faults.ParsePlan(o.Faults)
	if err == nil { // the mesh's directed links, nodes and ports, counted without building it
		err = plan.Fits(2*(o.W-1)*o.H+2*o.W*(o.H-1), o.W*o.H, int(topology.NumMeshPorts))
	}
	if err != nil {
		return fmt.Errorf("sim: faults: %w", err)
	}
	if _, _, err := invariant.ParseSpec(o.Watchdog); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if o.FPHealing && o.Scheme != FastPass {
		return fmt.Errorf("sim: healing is a FastPass configuration; it does not apply to %v", o.Scheme)
	}
	if o.Scheme == FastPass && o.FastPassK > 0 {
		if err := (fastpass.Schedule{W: o.W, H: o.H, K: o.FastPassK}).Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// Instance is a built scheme ready to simulate. Exactly one of Net and
// Deflect is non-nil.
type Instance struct {
	Opts    Options
	Mesh    *topology.Mesh
	Net     *network.Network
	Deflect *minbd.Network

	// FP is non-nil for FastPass (drop/promotion counters).
	FP *fastpass.Controller

	// Pit is non-nil for Pitstop (the watchdog counts pitted packets).
	Pit *pitstop.Controller

	// Trace is non-nil when Options.TraceCapacity > 0.
	Trace *trace.Recorder

	// Faults is non-nil when Options.Faults was set (fault counters).
	Faults *faults.Injector

	// Watch is non-nil when Options.Watchdog enabled the invariant
	// watchdogs; the run loop polls Watch.Tripped and stops.
	Watch *invariant.Watchdog

	// Hook, when set before Run, is told each phase of every cycle as it
	// begins, in the order DESIGN.md §4.1 lists (Run hands it to Net).
	// It observes only: a run with a hook is bit-identical to one
	// without.
	Hook func(network.Phase)

	// released is set by release; Run and Step then panic.
	released bool
}

// Source is a run's traffic and the harness work that rides each cycle:
// Tick runs before the network steps, Tock after it with the completed
// cycle count, reporting whether the run's work is done.
type Source interface {
	Tick(cycle int64)
	Tock(cycle int64) (done bool)
}

// Run is the one loop every run steps through: it steps the instance
// from its current cycle until the cycle budget until is spent, the
// watchdog trips or src reports its work done.
func (i *Instance) Run(src Source, until int64) {
	i.live()
	if i.Net != nil {
		i.Net.Hook = i.Hook
	}
	for i.Cycle() < until && !i.Watch.Tripped() {
		src.Tick(i.Cycle())
		i.Step()
		if src.Tock(i.Cycle()) {
			return
		}
	}
}

// phase reports p to the hook. Unset, a boundary costs one nil check.
func (i *Instance) phase(p network.Phase) {
	if i.Hook != nil {
		i.Hook(p)
	}
}

// routerConfigs is each mesh scheme's Table II router.
var routerConfigs = [numSchemes]func(vcs int) router.Config{
	FastPass: fastpass.Config, EscapeVC: escapevc.Config, SPIN: spin.Config, SWAP: swap.Config,
	DRAIN: drain.Config, Pitstop: pitstop.Config, TFC: tfc.Config,
}

// Build constructs a scheme instance: the one place a scheme is
// assembled. A mesh scheme is its Table II router under the scheme's
// controller, recording into the run's trace.
func Build(o Options) *Instance {
	o.setDefaults()
	mesh := topology.NewMesh(o.W, o.H)
	inst := &Instance{Opts: o, Mesh: mesh}
	if o.TraceCapacity > 0 {
		inst.Trace = trace.New(o.TraceCapacity)
	}
	if o.Scheme == MinBD { // no credits, VCs or NICs for faults to degrade or watchdogs to audit
		inst.Deflect = minbd.New(mesh, minbd.Params{EjectCap: o.EjectCap})
		return inst
	}
	if o.Scheme < 0 || o.Scheme >= numSchemes {
		panic("sim: unknown scheme")
	}
	n := network.New(network.Params{Mesh: mesh, Router: routerConfigs[o.Scheme](o.VCs), EjectCap: o.EjectCap})
	n.Trace = inst.Trace
	inst.Net = n
	switch o.Scheme {
	case FastPass:
		inst.FP = fastpass.Attach(n, fastpass.Params{
			K: o.FastPassK, ScanInjectionOnly: o.FPScanInjectionOnly, DropOnReject: o.FPDropOnReject, Healing: o.FPHealing,
		})
	case EscapeVC:
		n.Controller = network.NopController{Label: "EscapeVC"}
	case SPIN:
		spin.Attach(n, spin.Params{Threshold: o.SpinThreshold})
	case SWAP:
		swap.Attach(n, swap.Params{Duty: o.SwapDuty})
	case DRAIN:
		drain.Attach(n, drain.Params{Period: o.DrainPeriod})
	case Pitstop:
		inst.Pit = pitstop.Attach(n)
	case TFC:
		tfc.Attach(n)
	}
	inst.attachRobustness(n, o)
	return inst
}

// attachRobustness wires the fault injector and invariant watchdogs
// requested by Options into a freshly built mesh network.
func (inst *Instance) attachRobustness(n *network.Network, o Options) {
	if o.Faults != "" {
		plan := faults.MustParsePlan(o.Faults)
		if o.FaultScale > 0 {
			plan = plan.Scale(o.FaultScale)
		}
		inj := faults.NewInjector(plan, len(inst.Mesh.Links()), inst.Mesh.NumNodes(), inst.Mesh.NumPorts(), o.Seed)
		n.AttachFaults(inj)
		stall := func(node int, _ int64) bool { return inj.ConsumerStalled(node) }
		for _, nc := range n.NICs {
			nc.Stall = stall
		}
		inst.Faults = inj
	}
	if o.Watchdog != "" {
		wopts, on, err := invariant.ParseSpec(o.Watchdog)
		if err != nil {
			panic(fmt.Sprintf("sim: invalid watchdog spec: %v", err))
		}
		if on {
			inst.Watch = invariant.Attach(n, wopts)
		}
	}
}

// UsePool attaches the synthetic harness's packet arena and returns it
// for the traffic generator to draw from. The rule for every arena: a
// packet is released exactly once, by the ejection point that handed it
// to the consumer (the NIC once its Consumer has drained it, MinBD once
// the last flit has landed), after OnEject, and nothing may hold it
// afterwards — the stats collector copies what it needs. A synthetic
// run owns the pool made here, a protocol run the one protocol.New
// makes and wires the same way; never both.
func (i *Instance) UsePool() *message.Pool {
	pl := message.NewPool()
	// A packet leaves at its destination: the owner in poison panics.
	recycle := func(p *message.Packet) { pl.PutCtx(p, p.Dst, i.Cycle()) }
	if i.Net == nil {
		i.Deflect.Recycle = recycle
		return pl
	}
	for _, nc := range i.Net.NICs {
		nc.Recycle = recycle
	}
	return pl
}

// release ends a run that owned the instance from Build to its result:
// everything Build sized to the mesh — network or MinBD, FastPass
// controller, watchdog, fault injector and mesh — and the run's pool go
// to later Builds and UsePools (DESIGN.md §9), and the instance is
// poisoned. Only
// RunSynthetic, ResumeSynthetic and RunApp call it, after scoring: a run
// built with NewSynthetic, NewResumed or NewApp stays readable after Run.
func (i *Instance) release(pl *message.Pool) {
	i.live()
	i.released = true
	if i.Net != nil {
		i.Net.Release()
	} else {
		i.Deflect.Release()
	}
	if i.FP != nil {
		i.FP.Release()
	}
	i.Watch.Release()
	i.Faults.Release()
	i.Mesh.Release()
	pl.Release()
}

// live panics on a released instance: its memory belongs to later runs.
func (i *Instance) live() {
	if i.released {
		panic("sim: instance used after its run released it to later runs")
	}
}

// Step advances one cycle.
func (i *Instance) Step() {
	i.live()
	if i.Net != nil {
		i.Net.Step()
		return
	}
	i.phase(network.PhaseDeflect)
	i.Deflect.Step()
}

// Cycle reports the current cycle.
func (i *Instance) Cycle() int64 {
	if i.Net != nil {
		return i.Net.Cycle()
	}
	return i.Deflect.Cycle()
}

// Enqueue hands a fresh packet to its source NIC.
func (i *Instance) Enqueue(pkt *message.Packet) {
	i.Trace.Record(i.Cycle(), trace.PacketCreated, pkt.ID, pkt.Src, "")
	if i.Net != nil {
		i.Net.NICs[pkt.Src].EnqueueSource(pkt)
		return
	}
	i.Deflect.EnqueueSource(pkt)
}

// SetOnEject installs a delivery observer on every node.
func (i *Instance) SetOnEject(f func(pkt *message.Packet)) {
	wrapped := f
	if i.Trace != nil {
		wrapped = func(pkt *message.Packet) {
			i.Trace.Record(pkt.EjectTime, trace.PacketEjected, pkt.ID, pkt.Dst, "")
			f(pkt)
		}
	}
	if i.Net != nil {
		for _, nc := range i.Net.NICs {
			nc.OnEject = wrapped
		}
		return
	}
	i.Deflect.OnEject = wrapped
}
