package faults

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/snapshot"
)

func TestParsePlanFull(t *testing.T) {
	spec := "linkfail:rate=2e-4,dur=64; portstall:rate=1e-4,dur=32; corrupt:rate=1e-3;" +
		"creditloss:rate=5e-5; stallconsumer:rate=1e-5,dur=256; seed=7;" +
		"stallconsumer:node=5,at=100,perm; linkfail:link=3,at=50,dur=20; portstall:node=2,port=4,at=10"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkFailRate != 2e-4 || p.LinkFailDur != 64 {
		t.Errorf("linkfail = %v/%v", p.LinkFailRate, p.LinkFailDur)
	}
	if p.PortStallRate != 1e-4 || p.PortStallDur != 32 {
		t.Errorf("portstall = %v/%v", p.PortStallRate, p.PortStallDur)
	}
	if p.CorruptRate != 1e-3 || p.CreditLossRate != 5e-5 {
		t.Errorf("corrupt/creditloss = %v/%v", p.CorruptRate, p.CreditLossRate)
	}
	if p.ConsumerStallRate != 1e-5 || p.ConsumerStallDur != 256 {
		t.Errorf("stallconsumer = %v/%v", p.ConsumerStallRate, p.ConsumerStallDur)
	}
	if p.Seed != 7 {
		t.Errorf("seed = %d", p.Seed)
	}
	if len(p.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(p.Events))
	}
	ev := p.Events[0]
	if ev.Kind != EvConsumerStall || ev.Node != 5 || ev.At != 100 || ev.Dur != -1 {
		t.Errorf("event 0 = %+v", ev)
	}
	ev = p.Events[1]
	if ev.Kind != EvLinkFail || ev.Link != 3 || ev.At != 50 || ev.Dur != 20 {
		t.Errorf("event 1 = %+v", ev)
	}
	ev = p.Events[2]
	if ev.Kind != EvPortStall || ev.Node != 2 || ev.Port != 4 || ev.Dur != -1 {
		t.Errorf("event 2 = %+v", ev)
	}
}

func TestParsePlanEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", "none"} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if !p.Empty() {
			t.Errorf("%q: plan not empty: %+v", spec, p)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"linkfail",                 // missing rate
		"linkfail:rate=2",          // rate outside [0,1]
		"linkfail:rate=x",          // unparsable
		"meteor:rate=0.1",          // unknown kind
		"linkfail:rate=0.1,knob=3", // unknown parameter
		"linkfail:at=5",            // targeted without link=
		"portstall:node=1,at=5",    // targeted without port=
		"stallconsumer:at=5",       // targeted without node=
		"corrupt:rate=0.1,at=3",    // kind does not take at=
		"seed=x",                   // bad seed
		"frobnicate=1",             // unknown directive
		"linkfail:rate=0.1,dur=x",  // bad duration
		"portstall:rate=0.1;portstall:node=a,port=1,at=1", // bad node
		"linkfail:rate=0.1;;corrupt:rate=0.01",            // empty clause
		"linkfail:rate=0.1;",                              // trailing separator
		";",                                               // only separators
		"linkfail:rate=0.1,rate=0.2",                      // duplicate key
		"linkfail:rate=0.1,dur=8,dur=16",                  // duplicate key
		"linkfail:link=3,at=5,perm,dur=9",                 // perm then dur= duplicate
		"linkfail:link=3,at=5,dur=9,perm",                 // dur= then perm duplicate
		"linkfail:rate=-0.1",                              // negative rate
		"corrupt:rate=-1e-3",                              // negative rate
		"linkfail:rate=0.1,dur=-5",                        // negative duration (not -1)
		"portstall:rate=0.1,dur=-2",                       // negative duration (not -1)
		"stallconsumer:node=1,at=5,dur=-64",               // negative event duration
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("%q: expected parse error", spec)
		}
	}
}

// Negative durations mean permanent only through the single spelling
// dur=-1 (what perm expands to); the parser accepts it everywhere a
// duration is legal.
func TestParsePlanPermanentDur(t *testing.T) {
	p, err := ParsePlan("linkfail:rate=0.1,dur=-1;linkfail:link=3,at=5,dur=-1")
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkFailDur != -1 {
		t.Errorf("LinkFailDur = %d, want -1", p.LinkFailDur)
	}
	if len(p.Events) != 1 || p.Events[0].Dur != -1 {
		t.Errorf("events = %+v", p.Events)
	}
}

func TestScaleRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scale(-1) should panic, not clamp")
		}
	}()
	MustParsePlan("linkfail:rate=0.1").Scale(-1)
}

// An infinite factor would turn every unnamed category's 0 rate into
// 0 × Inf = NaN, which fires on every roll; it panics like a negative one.
func TestScaleRejectsInfinite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scale(+Inf) should panic, not produce NaN rates")
		}
	}()
	MustParsePlan("linkfail:rate=0.1").Scale(math.Inf(1))
}

func TestScaleClamps(t *testing.T) {
	p, err := ParsePlan("linkfail:rate=0.4;corrupt:rate=0.001;stallconsumer:node=1,at=5")
	if err != nil {
		t.Fatal(err)
	}
	s := p.Scale(10)
	if s.LinkFailRate != 1 {
		t.Errorf("scaled linkfail rate = %v, want clamp to 1", s.LinkFailRate)
	}
	if s.CorruptRate != 0.01 {
		t.Errorf("scaled corrupt rate = %v", s.CorruptRate)
	}
	if len(s.Events) != 1 {
		t.Errorf("scaling dropped events")
	}
	z := p.Scale(0)
	if z.LinkFailRate != 0 || z.CorruptRate != 0 || len(z.Events) != 1 {
		t.Errorf("zero scale should zero all rates, keep events: %+v", z)
	}
}

// LinkDown and PortStalled scan the expiry cycles for one victim: the
// reference the active lists are checked against.
func (j *Injector) LinkDown(link int) bool { return j.cycle < j.linkDownUntil[link] }
func (j *Injector) PortStalled(node, port int) bool {
	return j.cycle < j.portStallUntil[node*j.numPorts+port]
}

// schedule fingerprints the injector's fault state over a window.
func schedule(j *Injector, links, nodes, ports, cycles int) []uint64 {
	var out []uint64
	var h uint64
	for c := 0; c < cycles; c++ {
		j.BeginCycle(int64(c))
		h = 0
		for l := 0; l < links; l++ {
			if j.LinkDown(l) {
				h = h*31 + uint64(l) + 1
			}
		}
		for n := 0; n < nodes; n++ {
			if j.ConsumerStalled(n) {
				h = h*37 + uint64(n) + 1
			}
			for p := 0; p < ports; p++ {
				if j.PortStalled(n, p) {
					h = h*41 + uint64(n*ports+p) + 1
				}
			}
		}
		out = append(out, h)
	}
	return out
}

func TestInjectorDeterminism(t *testing.T) {
	plan := MustParsePlan("linkfail:rate=0.02,dur=16;portstall:rate=0.02,dur=8;stallconsumer:rate=0.01,dur=12")
	a := schedule(NewInjector(plan, 48, 16, 5, 42), 48, 16, 5, 2000)
	b := schedule(NewInjector(plan, 48, 16, 5, 42), 48, 16, 5, 2000)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedules diverge at cycle %d", i)
		}
	}
	c := schedule(NewInjector(plan, 48, 16, 5, 43), 48, 16, 5, 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestActiveVictimsMatchScan: the link and port lists Active hands the
// network to push into the routers hold exactly the victims a scan of
// LinkDown and PortStalled finds, every cycle — through overlapping,
// re-struck, zero-length and permanent faults, and across a snapshot
// round trip every 97 cycles, which rebuilds the lists from the expiry
// cycles alone.
func TestActiveVictimsMatchScan(t *testing.T) {
	const links, nodes, ports = 12, 4, 5
	plan := MustParsePlan("linkfail:rate=0.2,dur=9;portstall:rate=0.3,dur=5;" +
		"linkfail:link=2,at=40,perm;linkfail:link=2,at=60,dur=3;portstall:node=1,port=0,at=70,dur=0")
	j := NewInjector(plan, links, nodes, ports, 7)
	for c := int64(0); c < 2000; c++ {
		j.BeginCycle(c)
		var down, stalled []int32
		for l := 0; l < links; l++ {
			if j.LinkDown(l) {
				down = append(down, int32(l))
			}
		}
		for v := 0; v < nodes*ports; v++ {
			if j.PortStalled(v/ports, v%ports) {
				stalled = append(stalled, int32(v))
			}
		}
		activeLinks, activePorts := j.Active()
		if got := slices.Sorted(slices.Values(activeLinks)); !slices.Equal(got, down) {
			t.Fatalf("cycle %d: active links %v, scan %v", c, got, down)
		}
		if got := slices.Sorted(slices.Values(activePorts)); !slices.Equal(got, stalled) {
			t.Fatalf("cycle %d: active ports %v, scan %v", c, got, stalled)
		}
		if c%97 == 96 {
			w := snapshot.NewWriter()
			j.SnapshotState(w)
			j = NewInjector(plan, links, nodes, ports, 7)
			j.RestoreState(snapshot.NewReader(w.Bytes()))
		}
	}
}

func TestTargetedEventWindow(t *testing.T) {
	plan := MustParsePlan("linkfail:link=3,at=50,dur=20;stallconsumer:node=2,at=10,perm")
	j := NewInjector(plan, 48, 16, 5, 1)
	for c := int64(0); c < 200; c++ {
		j.BeginCycle(c)
		wantDown := c >= 50 && c < 70
		if got := j.LinkDown(3); got != wantDown {
			t.Fatalf("cycle %d: LinkDown(3) = %v, want %v", c, got, wantDown)
		}
		if got := j.ConsumerStalled(2); got != (c >= 10) {
			t.Fatalf("cycle %d: ConsumerStalled(2) = %v", c, got)
		}
		if j.LinkDown(0) || j.ConsumerStalled(0) {
			t.Fatalf("cycle %d: fault leaked to untargeted victim", c)
		}
	}
	if j.Counters.LinkFails != 1 || j.Counters.ConsumerStalls != 1 {
		t.Errorf("counters = %+v", j.Counters)
	}
}

func TestRolls(t *testing.T) {
	j := NewInjector(MustParsePlan("corrupt:rate=1;creditloss:rate=1"), 4, 2, 5, 1)
	j.BeginCycle(0)
	if !j.RollCorrupt(2) || !j.RollCreditLoss(2, 0) {
		t.Error("rate-1 rolls must always hit")
	}
	if j.Counters.FlitsCorrupted != 1 || j.Counters.CreditsLost != 1 {
		t.Errorf("counters = %+v", j.Counters)
	}
	z := NewInjector(Plan{}, 4, 2, 5, 1)
	z.BeginCycle(0)
	if z.RollCorrupt(2) || z.RollCreditLoss(2, 0) {
		t.Error("zero plan must never roll a fault")
	}
	w := j.CorruptWord(0xdeadbeef, 2)
	if bits.OnesCount64(w^0xdeadbeef) != 1 {
		t.Errorf("CorruptWord must flip exactly one bit (flipped %d)", bits.OnesCount64(w^0xdeadbeef))
	}
}

// The per-event rolls are pure functions of (seed, cycle, link, pulse):
// the order links are visited in — which in the network's shift
// depends on wake history — must not perturb any outcome.
func TestRollsOrderInvariant(t *testing.T) {
	draw := func(order []int) []bool {
		j := NewInjector(MustParsePlan("corrupt:rate=0.5;creditloss:rate=0.5"), 8, 2, 5, 42)
		j.BeginCycle(7)
		out := make([]bool, 2*8)
		for _, link := range order {
			out[2*link] = j.RollCorrupt(link)
			out[2*link+1] = j.RollCreditLoss(link, 3)
		}
		return out
	}
	fwd := draw([]int{0, 1, 2, 3, 4, 5, 6, 7})
	rev := draw([]int{7, 3, 5, 1, 6, 2, 4, 0})
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("draw %d differs between visit orders (%v vs %v)", i, fwd, rev)
		}
	}
	hit := false
	for _, v := range fwd {
		hit = hit || v
	}
	if !hit {
		t.Error("rate-0.5 rolls over 8 links hit nothing — hash likely degenerate")
	}
}

// PermGen moves exactly when a link enters the permanently-down state:
// transient failures never bump it, and re-failing an already-permanent
// link is not a new generation.
func TestPermGenCountsPermanentTransitions(t *testing.T) {
	plan := MustParsePlan("linkfail:link=3,at=10,dur=20;linkfail:link=5,at=30,perm;linkfail:link=5,at=40,perm;linkfail:link=7,at=50,perm")
	j := NewInjector(plan, 48, 16, 5, 1)
	want := func(cycle int64, gen uint64) {
		t.Helper()
		j.BeginCycle(cycle)
		if got := j.PermGen(); got != gen {
			t.Fatalf("cycle %d: PermGen = %d, want %d", cycle, got, gen)
		}
	}
	want(0, 0)
	want(10, 0) // transient failure: no generation change
	want(30, 1)
	want(40, 1) // same link permanent again: no change
	want(50, 2)
	if !j.LinkDownPermanently(5) || !j.LinkDownPermanently(7) {
		t.Error("permanent links not reported by LinkDownPermanently")
	}
	if j.LinkDownPermanently(3) {
		t.Error("transient failure reported as permanent")
	}
}

// TestParsePlanKindErrors: a targeted clause names what is wrong with
// its kind — unknown, or one that takes no at=.
func TestParsePlanKindErrors(t *testing.T) {
	for spec, want := range map[string]string{
		"stallport:node=1,port=1,at=10": `unknown fault kind "stallport"`,
		"meteor:at=5":                   `unknown fault kind "meteor"`,
		"corrupt:rate=0.1,at=3":         `clause "corrupt" does not take at=`,
		"creditloss:at=3":               `clause "creditloss" does not take at=`,
	} {
		if _, err := ParsePlan(spec); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", spec, err, want)
		}
	}
}

// TestPlanFits checks every targeted victim against a 4x4 mesh's 48
// links, 16 nodes and 5 ports; rate-driven faults pick their own.
func TestPlanFits(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		want string
	}{
		{MustParsePlan("linkfail:rate=1e-3;portstall:rate=1e-3;stallconsumer:rate=1e-3"), ""},
		{MustParsePlan("linkfail:link=47,at=1;portstall:node=15,port=4,at=1;stallconsumer:node=15,at=1"), ""},
		{MustParsePlan("linkfail:link=48,at=1"), "event link 48 outside topology (48 links)"},
		{MustParsePlan("portstall:node=16,port=0,at=1"), "event port (16,0) outside topology (16 nodes, 5 ports)"},
		{MustParsePlan("portstall:node=0,port=5,at=1"), "event port (0,5) outside topology (16 nodes, 5 ports)"},
		{MustParsePlan("stallconsumer:node=16,at=1"), "event node 16 outside topology (16 nodes)"},
		{Plan{Events: []Event{{Kind: EvLinkFail, Link: -1}}}, "event link -1 outside topology (48 links)"},
		{Plan{Events: []Event{{Kind: EvConsumerStall, Node: -1}}}, "event node -1 outside topology (16 nodes)"},
	} {
		err := tc.plan.Fits(48, 16, 5)
		if got := fmt.Sprint(err); (tc.want == "" && err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%+v: Fits = %v, want %q", tc.plan.Events, err, tc.want)
		}
	}
}

func TestEventValidationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range event link should panic at construction")
		}
	}()
	NewInjector(MustParsePlan("linkfail:link=99,at=1"), 10, 4, 5, 1)
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p.LinkFailRate == 0 && p.PortStallRate == 0 && p.CorruptRate == 0 &&
		p.CreditLossRate == 0 && p.ConsumerStallRate == 0 && len(p.Events) == 0
}
