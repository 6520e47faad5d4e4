// Package faults is the deterministic fault-injection engine: it breaks
// the simulated hardware on purpose — link failures, router input-port
// stalls, flit payload corruption, credit-pulse loss, wedged ejection
// consumers — so the watchdogs in internal/invariant and the schemes'
// recovery mechanisms can be exercised against degraded silicon instead
// of only healthy meshes.
//
// Everything is scheduled off the simulation cycle counter: the
// once-per-cycle category rolls (BeginCycle) draw from a per-injector
// seeded generator, while the per-event rolls (flit corruption, credit
// loss) are hashed from (seed, cycle, link, pulse) — a pure function of
// the event's identity, not of how many other events were rolled first.
// A fault run is therefore a pure function of (plan, topology, seed)
// and independent of evaluation order: bit-identical at any -j of the
// parallel experiment runner, and whatever order the network's shift
// visits its dirty channels in (that order depends on wake history).
//
// Fault plans are compact specs, e.g.
//
//	linkfail:rate=2e-4,dur=64;corrupt:rate=1e-3;creditloss:rate=1e-4
//
// for random transient faults, or targeted one-shot events for fixtures:
//
//	stallconsumer:node=5,at=100,perm
//
// See ParsePlan for the full grammar.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/snapshot"
	"repro/internal/spare"
)

// EventKind identifies a targeted one-shot fault.
type EventKind int

// The targeted event kinds.
const (
	EvLinkFail EventKind = iota
	EvPortStall
	EvConsumerStall
)

// Event is a targeted fault scheduled at an exact cycle — the
// deterministic counterpart of the rate-driven faults, used by test
// fixtures that need a specific victim at a specific time.
type Event struct {
	Kind EventKind
	// At is the cycle the fault begins.
	At int64
	// Link is the victim link ID (EvLinkFail).
	Link int
	// Node and Port locate the victim (EvPortStall, EvConsumerStall).
	Node, Port int
	// Dur is the fault duration in cycles; < 0 means permanent.
	Dur int64
}

// Plan is a parsed fault plan. Rates are per-cycle probabilities of one
// new fault of that category striking a uniformly random victim;
// corruption and credit loss are rolled per flit traversal and per
// credit pulse respectively. The zero Plan injects nothing.
type Plan struct {
	// LinkFailRate is the per-cycle probability that a random directed
	// link fails for LinkFailDur cycles (0 → 64; < 0 → permanent). A
	// failed link stops accepting new regular flits; flits already in
	// its pipeline still deliver, and FastPass lanes — dedicated wiring
	// in the paper's router — are unaffected.
	LinkFailRate float64
	LinkFailDur  int64

	// PortStallRate is the per-cycle probability that a random network
	// input port of a random router freezes for PortStallDur cycles
	// (0 → 32; < 0 → permanent): its buffered flits stop advancing
	// through the switch.
	PortStallRate float64
	PortStallDur  int64

	// CorruptRate is the per-traversal probability that a flit payload
	// bit flips on the wire. The per-flit checksum detects it at the
	// final delivery and marks the packet Corrupted.
	CorruptRate float64

	// CreditLossRate is the per-pulse probability that a returning
	// credit is lost, permanently wedging the upstream view of the VC —
	// the fault the VC-leak watchdog exists to catch.
	CreditLossRate float64

	// ConsumerStallRate is the per-cycle probability that a random
	// node's ejection consumer wedges for ConsumerStallDur cycles
	// (0 → 256; < 0 → permanent), backing its queues up into the
	// network.
	ConsumerStallRate float64
	ConsumerStallDur  int64

	// Seed perturbs the injector's generator independently of the
	// simulation seed.
	Seed int64

	// Events are targeted one-shot faults, fired in At order.
	Events []Event
}

// Scale returns a copy with every rate multiplied by f (clamped to 1).
// Targeted events are not scaled. Resilience sweeps use it to walk a
// fault-intensity axis from a single base plan. Negative factors are a
// driver bug — a rate can only be attenuated or amplified, never
// inverted — and panic rather than silently producing a zero plan; so
// do NaN and infinite ones, whose 0 × Inf = NaN rates would fire on
// every roll of a fault the plan never named.
func (p Plan) Scale(f float64) Plan {
	if !(f >= 0) || math.IsInf(f, 1) {
		panic(fmt.Sprintf("faults: fault-scale factor %v is not a finite non-negative number", f))
	}
	s := p
	s.LinkFailRate = clamp01(p.LinkFailRate * f)
	s.PortStallRate = clamp01(p.PortStallRate * f)
	s.CorruptRate = clamp01(p.CorruptRate * f)
	s.CreditLossRate = clamp01(p.CreditLossRate * f)
	s.ConsumerStallRate = clamp01(p.ConsumerStallRate * f)
	return s
}

func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// ParsePlan parses a compact fault-plan spec:
//
//	spec    := clause (";" clause)*
//	clause  := kind [":" param ("," param)*] | "seed=" int
//	kind    := "linkfail" | "portstall" | "corrupt" | "creditloss" | "stallconsumer"
//	param   := key "=" value | "perm"
//
// Random faults take rate= (and dur= where applicable). A clause with
// at= instead describes a targeted one-shot Event and requires a victim
// (link= for linkfail; node= and port= for portstall; node= for
// stallconsumer); its duration defaults to permanent. "perm" is
// shorthand for dur=-1. The empty string parses to the zero Plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			// An empty clause inside a non-empty spec is a typo (";;",
			// a trailing separator), not a request for nothing: reject it
			// so the mistake surfaces at flag-parse time, not mid-campaign.
			return Plan{}, fmt.Errorf("empty clause in spec %q", spec)
		}
		if err := p.parseClause(clause); err != nil {
			return Plan{}, err
		}
	}
	return p, nil
}

// MustParsePlan is ParsePlan for specs already validated (Build paths
// whose callers checked the spec at flag-parse time).
func MustParsePlan(spec string) Plan {
	p, err := ParsePlan(spec)
	if err != nil {
		panic(fmt.Sprintf("faults: %v", err))
	}
	return p
}

func (p *Plan) parseClause(clause string) error {
	kind, rest, hasParams := strings.Cut(clause, ":")
	kind = strings.TrimSpace(kind)
	if k, v, ok := strings.Cut(kind, "="); ok && !hasParams {
		if strings.TrimSpace(k) != "seed" {
			return fmt.Errorf("unknown directive %q", k)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", v)
		}
		p.Seed = n
		return nil
	}
	kv := map[string]string{}
	if hasParams {
		for _, param := range strings.Split(rest, ",") {
			param = strings.TrimSpace(param)
			if param == "" {
				continue
			}
			if param == "perm" {
				if _, dup := kv["dur"]; dup {
					return fmt.Errorf("clause %q: duplicate parameter %q (perm is shorthand for dur=-1)", kind, "dur")
				}
				kv["dur"] = "-1"
				continue
			}
			k, v, ok := strings.Cut(param, "=")
			if !ok {
				return fmt.Errorf("clause %q: parameter %q is not key=value", kind, param)
			}
			key := strings.TrimSpace(k)
			if _, dup := kv[key]; dup {
				// Last-one-wins would silently discard half the clause;
				// a duplicated key is always a typo.
				return fmt.Errorf("clause %q: duplicate parameter %q", kind, key)
			}
			kv[key] = strings.TrimSpace(v)
		}
	}
	get := func(key string) (string, bool) { v, ok := kv[key]; delete(kv, key); return v, ok }
	num := func(key string, def int64) (int64, error) {
		v, ok := get(key)
		if !ok {
			return def, nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("clause %q: bad %s %q", kind, key, v)
		}
		return n, nil
	}
	rate := func() (float64, error) {
		v, ok := get("rate")
		if !ok {
			return 0, fmt.Errorf("clause %q: missing rate=", kind)
		}
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || r < 0 || r > 1 {
			return 0, fmt.Errorf("clause %q: rate %q outside [0,1]", kind, v)
		}
		return r, nil
	}
	dur := func(def int64) (int64, error) {
		d, err := num("dur", def)
		if err != nil {
			return 0, err
		}
		if d < -1 {
			return 0, fmt.Errorf("clause %q: duration %d is negative (use perm or dur=-1 for a permanent fault)", kind, d)
		}
		return d, nil
	}
	_, targeted := kv["at"]
	var err error
	switch {
	case targeted:
		ev := Event{Dur: -1}
		if ev.At, err = num("at", 0); err != nil {
			return err
		}
		if ev.Dur, err = dur(-1); err != nil {
			return err
		}
		switch kind {
		case "linkfail":
			ev.Kind = EvLinkFail
			ev.Link = -1
			if v, ok := kv["link"]; ok {
				delete(kv, "link")
				if n, e := strconv.ParseInt(v, 10, 32); e == nil {
					ev.Link = int(n)
				}
			}
			if ev.Link < 0 {
				return fmt.Errorf("clause %q: targeted linkfail needs link=", kind)
			}
		case "portstall":
			ev.Kind = EvPortStall
			node, nerr := num("node", -1)
			port, perr := num("port", -1)
			if nerr != nil || perr != nil || node < 0 || port < 0 {
				return fmt.Errorf("clause %q: targeted portstall needs node= and port=", kind)
			}
			ev.Node, ev.Port = int(node), int(port)
		case "stallconsumer":
			ev.Kind = EvConsumerStall
			node, nerr := num("node", -1)
			if nerr != nil || node < 0 {
				return fmt.Errorf("clause %q: targeted stallconsumer needs node=", kind)
			}
			ev.Node = int(node)
		case "corrupt", "creditloss":
			return fmt.Errorf("clause %q does not take at=", kind)
		default:
			return fmt.Errorf("unknown fault kind %q", kind)
		}
		p.Events = append(p.Events, ev)
	default:
		// A random fault sets its rate and, when it lasts, its duration.
		var r *float64
		var d *int64
		switch kind {
		case "linkfail":
			r, d = &p.LinkFailRate, &p.LinkFailDur
		case "portstall":
			r, d = &p.PortStallRate, &p.PortStallDur
		case "corrupt":
			r = &p.CorruptRate
		case "creditloss":
			r = &p.CreditLossRate
		case "stallconsumer":
			r, d = &p.ConsumerStallRate, &p.ConsumerStallDur
		default:
			return fmt.Errorf("unknown fault kind %q", kind)
		}
		if *r, err = rate(); err != nil {
			return err
		}
		if d != nil {
			if *d, err = dur(0); err != nil {
				return err
			}
		}
	}
	if len(kv) > 0 {
		// Report the alphabetically first leftover so the error text does
		// not depend on map iteration order.
		var leftover []string
		for k := range kv {
			leftover = append(leftover, k)
		}
		sort.Strings(leftover)
		return fmt.Errorf("clause %q: unknown parameter %q", kind, leftover[0])
	}
	return nil
}

// Counters aggregates injected-fault activity for reports and the
// resilience CSV.
type Counters struct {
	LinkFails           int64 // link-failure onsets
	PortStalls          int64 // input-port stall onsets
	ConsumerStalls      int64 // ejection-consumer stall onsets
	FlitsCorrupted      int64 // payload bits flipped on the wire
	CorruptionsDetected int64 // checksum mismatches caught at delivery
	CreditsLost         int64 // credit pulses dropped
}

// Injector applies a Plan to one simulation. All bookkeeping lives in
// slots preallocated at construction — BeginCycle and the per-event
// queries never touch the allocator, keeping the zero-alloc steady
// state intact.
//
// An Injector is not concurrency-safe; like message.Pool it belongs to
// exactly one single-threaded simulation.
type Injector struct {
	plan Plan
	rng  *rand.Rand
	// src is rng's underlying counting source: the category rolls in
	// BeginCycle consume a victim-dependent number of draws, so the
	// stream position (not a cycle count) is what a checkpoint records.
	src *snapshot.CountingSource

	// hashKey salts the order-invariant per-event draws (RollCorrupt,
	// RollCreditLoss, CorruptWord); derived from the same (plan, sim)
	// seed material as rng but consumed positionally, never sequentially.
	hashKey uint64

	numLinks, numNodes, numPorts int

	// *Until hold absolute expiry cycles per victim (MaxInt64 =
	// permanent); a victim is faulty while cycle < until.
	linkDownUntil      []int64
	portStallUntil     []int64 // node*numPorts + port
	consumerStallUntil []int64
	// down and stalled list the victims in force (see Active): one joins
	// as it fails and leaves once BeginCycle passes its until.
	down, stalled []int32

	events    []Event // sorted by At
	nextEvent int
	cycle     int64

	// permGen counts transitions of links into the permanently-down
	// state. Controllers that derive wiring from the surviving graph
	// (the self-healing FastPass lane re-derivation) compare it against
	// the generation they last applied: a plain integer compare per
	// cycle, no scanning.
	permGen uint64

	// Counters aggregates everything injected so far.
	Counters Counters

	// untilArr and activeArr back the *Until arrays and the active
	// lists, whole: what Release hands on.
	untilArr  []int64
	activeArr []int32
}

// The stores NewInjector takes its arrays from and Release returns them
// to.
var (
	spareUntil  spare.Store[int64]
	spareActive spare.Store[int32]
)

// Release hands the injector's arrays and RNG source to a later
// NewInjector in the process (a nil injector has none). Its Counters
// stay readable; nothing may step or query j afterwards.
func (j *Injector) Release() {
	if j == nil {
		return
	}
	spareUntil.Put(j.untilArr)
	spareActive.Put(j.activeArr)
	j.src.Release()
	*j = Injector{Counters: j.Counters}
}

// NewInjector builds an injector for a topology of numLinks directed
// links and numNodes routers with numPorts ports each. The simulation
// seed is folded with the plan seed so distinct runs draw distinct
// fault sequences while staying reproducible.
func NewInjector(plan Plan, numLinks, numNodes, numPorts int, seed int64) *Injector {
	if numLinks < 1 || numNodes < 1 || numPorts < 2 {
		panic(fmt.Sprintf("faults: degenerate topology (%d links, %d nodes, %d ports)", numLinks, numNodes, numPorts))
	}
	src := snapshot.NewCountingSource(plan.Seed ^ (seed+1)*0x5deece66d)
	ports := numNodes * numPorts
	until := spareUntil.Take(numLinks + ports + numNodes)
	active := spareActive.Take(numLinks + ports)
	j := &Injector{
		untilArr:           until,
		activeArr:          active,
		plan:               plan,
		rng:                rand.New(src),
		src:                src,
		hashKey:            splitmix64(uint64(plan.Seed) ^ uint64(seed+1)*0x5deece66d),
		numLinks:           numLinks,
		numNodes:           numNodes,
		numPorts:           numPorts,
		linkDownUntil:      until[:numLinks:numLinks],
		portStallUntil:     until[numLinks : numLinks+ports : numLinks+ports],
		consumerStallUntil: until[numLinks+ports:],
		down:               active[:0:numLinks],
		stalled:            active[numLinks:numLinks],
	}
	if plan.LinkFailDur == 0 {
		j.plan.LinkFailDur = 64
	}
	if plan.PortStallDur == 0 {
		j.plan.PortStallDur = 32
	}
	if plan.ConsumerStallDur == 0 {
		j.plan.ConsumerStallDur = 256
	}
	if err := plan.Fits(numLinks, numNodes, numPorts); err != nil {
		panic(fmt.Sprintf("faults: %v", err))
	}
	j.events = append(j.events, plan.Events...)
	sort.SliceStable(j.events, func(a, b int) bool { return j.events[a].At < j.events[b].At })
	return j
}

// Fits returns an error naming the first targeted event whose victim
// lies outside a topology of numLinks directed links and numNodes
// routers with numPorts ports each.
func (p Plan) Fits(numLinks, numNodes, numPorts int) error {
	for _, ev := range p.Events {
		switch {
		case ev.Kind == EvLinkFail && (ev.Link < 0 || ev.Link >= numLinks):
			return fmt.Errorf("event link %d outside topology (%d links)", ev.Link, numLinks)
		case ev.Kind == EvPortStall && (ev.Node < 0 || ev.Node >= numNodes || ev.Port < 0 || ev.Port >= numPorts):
			return fmt.Errorf("event port (%d,%d) outside topology (%d nodes, %d ports)", ev.Node, ev.Port, numNodes, numPorts)
		case ev.Kind == EvConsumerStall && (ev.Node < 0 || ev.Node >= numNodes):
			return fmt.Errorf("event node %d outside topology (%d nodes)", ev.Node, numNodes)
		}
	}
	return nil
}

func (j *Injector) until(dur int64) int64 {
	if dur < 0 {
		return math.MaxInt64
	}
	return j.cycle + dur
}

// BeginCycle advances fault state to the given cycle: due targeted
// events fire, and each rate-driven category rolls for at most one new
// fault. Call exactly once per cycle before controllers run.
func (j *Injector) BeginCycle(cycle int64) {
	j.cycle = cycle
	for j.nextEvent < len(j.events) && j.events[j.nextEvent].At <= cycle {
		j.fire(j.events[j.nextEvent])
		j.nextEvent++
	}
	p := &j.plan
	if p.LinkFailRate > 0 && j.rng.Float64() < p.LinkFailRate {
		j.failLink(j.rng.Intn(j.numLinks), p.LinkFailDur)
	}
	if p.PortStallRate > 0 && j.rng.Float64() < p.PortStallRate {
		// Network ports only; a Local stall is a consumer/injection
		// pathology, modelled by stallconsumer.
		j.stallPort(j.rng.Intn(j.numNodes), 1+j.rng.Intn(j.numPorts-1), p.PortStallDur)
	}
	if p.ConsumerStallRate > 0 && j.rng.Float64() < p.ConsumerStallRate {
		j.stallConsumer(j.rng.Intn(j.numNodes), p.ConsumerStallDur)
	}
	j.down = j.expire(j.down, j.linkDownUntil)
	j.stalled = j.expire(j.stalled, j.portStallUntil)
}

// expire drops from an active list the victims whose until has passed.
func (j *Injector) expire(list []int32, until []int64) []int32 {
	w := 0
	for _, x := range list {
		if j.cycle < until[x] {
			list[w] = x
			w++
		}
	}
	return list[:w]
}

func (j *Injector) fire(ev Event) {
	switch ev.Kind {
	case EvLinkFail:
		j.failLink(ev.Link, ev.Dur)
	case EvPortStall:
		j.stallPort(ev.Node, ev.Port, ev.Dur)
	case EvConsumerStall:
		j.stallConsumer(ev.Node, ev.Dur)
	}
}

func (j *Injector) failLink(link int, dur int64) {
	until := j.until(dur)
	if until == math.MaxInt64 && j.linkDownUntil[link] != math.MaxInt64 {
		j.permGen++
	}
	j.linkDownUntil[link] = until
	if !slices.Contains(j.down, int32(link)) {
		j.down = append(j.down, int32(link))
	}
	j.Counters.LinkFails++
}

func (j *Injector) stallPort(node, port int, dur int64) {
	v := int32(node*j.numPorts + port)
	j.portStallUntil[v] = j.until(dur)
	if !slices.Contains(j.stalled, v) {
		j.stalled = append(j.stalled, v)
	}
	j.Counters.PortStalls++
}

func (j *Injector) stallConsumer(node int, dur int64) {
	j.consumerStallUntil[node] = j.until(dur)
	j.Counters.ConsumerStalls++
}

// Active returns the links failed and the router input ports frozen
// (node*numPorts + port), unordered, until the next BeginCycle.
func (j *Injector) Active() (links, ports []int32) { return j.down, j.stalled }

// LinkDownPermanently reports whether the directed link is failed
// forever — the faults self-healing controllers rewire around.
func (j *Injector) LinkDownPermanently(link int) bool {
	return j.linkDownUntil[link] == math.MaxInt64
}

// PermGen returns the permanent-link-failure generation: it increments
// each time a link transitions into the permanently-down state. A
// controller caches the generation it last derived wiring for and
// re-derives only when the value moves, keeping the healthy hot path at
// one integer compare.
func (j *Injector) PermGen() uint64 { return j.permGen }

// ConsumerStalled reports whether the node's ejection consumer is
// currently wedged.
func (j *Injector) ConsumerStalled(node int) bool {
	return j.cycle < j.consumerStallUntil[node]
}

// Salts keep the per-event draw categories statistically independent of
// each other at the same (cycle, link) key.
const (
	saltCorrupt    = 0x636f727275707431 // "corrupt1"
	saltCorruptBit = 0x636f727275707432 // "corrupt2"
	saltCredit     = 0x6372656469746c73 // "creditls"
)

// hash mixes the injector key, the current cycle and an event identity
// into an order-invariant 64-bit draw.
func (j *Injector) hash(link, sub int, salt uint64) uint64 {
	x := splitmix64(j.hashKey ^ uint64(j.cycle)*0x9e3779b97f4a7c15)
	return splitmix64(x ^ uint64(link)<<20 ^ uint64(sub)<<1 ^ salt)
}

// roll01 maps a hashed draw onto [0, 1) with 53-bit resolution.
func (j *Injector) roll01(link, sub int, salt uint64) float64 {
	return float64(j.hash(link, sub, salt)>>11) / (1 << 53)
}

// RollCorrupt draws one corruption decision for the flit traversing the
// given link this cycle, counting hits. The draw is a pure function of
// (seed, cycle, link): links can be visited in any order without
// perturbing other links' outcomes.
func (j *Injector) RollCorrupt(link int) bool {
	if j.plan.CorruptRate <= 0 {
		return false
	}
	if j.roll01(link, 0, saltCorrupt) >= j.plan.CorruptRate {
		return false
	}
	j.Counters.FlitsCorrupted++
	return true
}

// CorruptWord flips one uniformly random bit of the payload word
// crossing the given link this cycle.
func (j *Injector) CorruptWord(w uint64, link int) uint64 {
	return w ^ (1 << (j.hash(link, 0, saltCorruptBit) & 63))
}

// RollCreditLoss draws one loss decision for the pulse-th credit in the
// given link's pipe this cycle, counting hits. Order-invariant like
// RollCorrupt.
func (j *Injector) RollCreditLoss(link, pulse int) bool {
	if j.plan.CreditLossRate <= 0 {
		return false
	}
	if j.roll01(link, pulse, saltCredit) >= j.plan.CreditLossRate {
		return false
	}
	j.Counters.CreditsLost++
	return true
}

// splitmix64 is the SplitMix64 finalizer (Steele et al., OOPSLA 2014):
// a bijective avalanche mix turning structured keys into uniform draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NoteCorruptionDetected records a checksum mismatch caught at
// delivery.
func (j *Injector) NoteCorruptionDetected() { j.Counters.CorruptionsDetected++ }
