package protocol

import (
	"testing"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/topology"
)

// flowHarness runs an engine whose issue behaviour is forced to one
// transaction type, and records the classes crossing the wire.
func flowHarness(t *testing.T, profile Profile, cycles int) (map[message.Class]int, *Engine) {
	t.Helper()
	n := escapeNet(topology.NewMesh(4, 4))
	e := New(n, profile, 13)
	seen := map[message.Class]int{}
	for _, nc := range n.NICs {
		nc.OnEject = func(p *message.Packet) { seen[p.Class]++ }
	}
	for c := 0; c < cycles; c++ {
		e.Tick(n.Cycle())
		n.Step()
	}
	return seen, e
}

// A pure two-hop miss flow exchanges exactly Request, Response and
// Unblock — never Forward/Invalidate/WriteBack.
func TestTwoHopFlowClasses(t *testing.T) {
	seen, e := flowHarness(t, Profile{IssueRate: 0.02}, 8000)
	if e.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	for _, cl := range []message.Class{message.Request, message.Response, message.Unblock} {
		if seen[cl] == 0 {
			t.Errorf("class %v missing from a two-hop flow", cl)
		}
	}
	for _, cl := range []message.Class{message.Forward, message.Invalidate, message.WriteBack} {
		if seen[cl] != 0 {
			t.Errorf("class %v should not appear (%d seen)", cl, seen[cl])
		}
	}
	// Every completed transaction sends exactly one Request, one data
	// Response, one Unblock: the counts must track each other.
	if seen[message.Request] < int(e.Completed) {
		t.Errorf("requests %d < completed %d", seen[message.Request], e.Completed)
	}
}

// A forced three-hop flow must put Forward packets on the wire.
func TestForwardFlowClasses(t *testing.T) {
	seen, e := flowHarness(t, Profile{IssueRate: 0.02, FwdFraction: 1.0}, 8000)
	if e.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if seen[message.Forward] == 0 {
		t.Error("forced forward flow produced no Forward packets")
	}
	if seen[message.Invalidate] != 0 {
		t.Error("unexpected invalidations")
	}
}

// A forced invalidation flow produces Invalidate fan-out plus ack
// responses; acks outnumber data responses.
func TestInvalidationFlowClasses(t *testing.T) {
	seen, e := flowHarness(t, Profile{IssueRate: 0.02, InvFraction: 1.0, MaxSharers: 3}, 10000)
	if e.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if seen[message.Invalidate] == 0 {
		t.Error("no invalidations on the wire")
	}
	if seen[message.Invalidate] < int(e.Completed) {
		t.Errorf("invalidations %d < completed %d (expected ≥1 per txn)",
			seen[message.Invalidate], e.Completed)
	}
	// Each invalidation generates an ack Response in addition to the
	// data Response.
	if seen[message.Response] <= seen[message.Invalidate] {
		t.Errorf("responses %d should exceed invalidations %d (acks + data)",
			seen[message.Response], seen[message.Invalidate])
	}
}

// A forced writeback flow exchanges WriteBack and ack Response, plus
// the closing Unblock, and no Requests.
func TestWritebackFlowClasses(t *testing.T) {
	seen, e := flowHarness(t, Profile{IssueRate: 0.02, WBFraction: 1.0}, 8000)
	if e.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if seen[message.WriteBack] == 0 {
		t.Error("no writebacks on the wire")
	}
	if seen[message.Request] != 0 {
		t.Errorf("pure writeback flow sent %d Requests", seen[message.Request])
	}
}

// Bursts respect the configured mean rate: aggregate issue counts for
// Burst=1 and Burst=8 at the same IssueRate land in the same band.
func TestBurstPreservesMeanRate(t *testing.T) {
	issued := func(burst int) int64 {
		n := escapeNet(topology.NewMesh(4, 4))
		e := New(n, Profile{IssueRate: 0.02, Burst: burst, MSHRs: 64}, 99)
		for c := 0; c < 20000; c++ {
			e.Tick(n.Cycle())
			n.Step()
		}
		return e.Issued
	}
	smooth := issued(1)
	bursty := issued(8)
	ratio := float64(bursty) / float64(smooth)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("burst=8 issued %d vs smooth %d (ratio %.2f; should match mean rate)",
			bursty, smooth, ratio)
	}
}

// Hot homes concentrate requests: with HotFraction close to 1 the top
// destination receives far more than 1/N of the requests.
func TestHotHomeSkew(t *testing.T) {
	n := escapeNet(topology.NewMesh(4, 4))
	e := New(n, Profile{IssueRate: 0.03, HotFraction: 0.9, HotHomes: 2}, 5)
	reqTo := make([]int, 16)
	for _, nc := range n.NICs {
		nc.OnEject = func(p *message.Packet) {
			if p.Class == message.Request {
				reqTo[p.Dst]++
			}
		}
	}
	for c := 0; c < 15000; c++ {
		e.Tick(n.Cycle())
		n.Step()
	}
	total, top := 0, 0
	for _, k := range reqTo {
		total += k
		if k > top {
			top = k
		}
	}
	if total == 0 {
		t.Fatal("no requests delivered")
	}
	if frac := float64(top) / float64(total); frac < 0.25 {
		t.Errorf("hottest home got %.2f of requests; expected heavy skew", frac)
	}
}

// The engine must work on any Backend — exercised here through the
// plain network (already its production backend) with a tiny mesh.
func TestTinyMesh(t *testing.T) {
	n := escapeNet(topology.NewMesh(2, 2))
	e := New(n, Profile{IssueRate: 0.05, FwdFraction: 0.5}, 3)
	for c := 0; c < 8000; c++ {
		e.Tick(n.Cycle())
		n.Step()
	}
	if e.Completed == 0 {
		t.Fatal("no transactions completed on a 2x2 mesh")
	}
	_ = network.NopController{}
}
