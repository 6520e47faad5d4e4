package invariant_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fastpass"
	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildDeadlockNet assembles the repo's canonical deadlock fixture (see
// examples/deadlock): fully adaptive routing, one VN, no recovery
// scheme. A dense all-to-all burst wedges it permanently.
func buildDeadlockNet() *network.Network {
	return network.New(network.Params{
		Mesh: topology.NewMesh(4, 4),
		Router: router.Config{
			NumVNs: 1, VCsPerVN: 2, BufFlits: 5, InjQueueFlits: 10,
			VCAlgorithms: []routing.Algorithm{routing.FullyAdaptive, routing.FullyAdaptive},
			ClassVN:      func(message.Class) int { return 0 },
		},
		EjectCap: 4,
	})
}

// offerBurst enqueues the wedging all-to-all burst; returns the packet
// count.
func offerBurst(n *network.Network) int {
	total := 0
	id := uint64(0)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			id++
			ln := 1
			if id%2 == 0 {
				ln = 5
			}
			n.NICs[s].EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), ln, 0))
			total++
		}
	}
	return total
}

func TestParseSpec(t *testing.T) {
	for _, spec := range []string{"", "off", "none"} {
		if _, on, err := invariant.ParseSpec(spec); err != nil || on {
			t.Errorf("ParseSpec(%q) = on=%v err=%v, want off", spec, on, err)
		}
	}
	o, on, err := invariant.ParseSpec("on")
	if err != nil || !on {
		t.Fatalf("ParseSpec(on) = on=%v err=%v", on, err)
	}
	if o.Stride != 64 || o.DeadlockWindow != 8192 || o.StarveBound != 1<<20 || o.LeakBound != 1<<19 {
		t.Errorf("defaults = %+v", o)
	}
	o, on, err = invariant.ParseSpec("stride=8, deadlock=512,starve=1000,leak=2000")
	if err != nil || !on {
		t.Fatalf("ParseSpec(tuned) err=%v on=%v", err, on)
	}
	if o.Stride != 8 || o.DeadlockWindow != 512 || o.StarveBound != 1000 || o.LeakBound != 2000 {
		t.Errorf("tuned = %+v", o)
	}
	for _, bad := range []string{"stride", "stride=0", "stride=-4", "stride=x", "bogus=3"} {
		if _, _, err := invariant.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestDeadlockWatchdogGolden drives the deadlock fixture until the
// watchdog fires and pins the structured report to a golden file: the
// deadlock-freedom methodology is only as good as the diagnostic it
// emits when freedom fails.
func TestDeadlockWatchdogGolden(t *testing.T) {
	n := buildDeadlockNet()
	w := invariant.Attach(n, invariant.Options{Stride: 16, DeadlockWindow: 512})
	offerBurst(n)
	for i := 0; i < 60000 && !w.Tripped(); i++ {
		n.Step()
	}
	if !w.Tripped() {
		t.Fatal("deadlock fixture ran 60k cycles without tripping the watchdog")
	}
	if !w.Deadlocked() {
		t.Fatalf("watchdog tripped without finding a waits-for cycle:\n%s", w.Report())
	}
	vs := w.Violations()
	last := vs[len(vs)-1]
	if last.Kind != invariant.Deadlock {
		t.Fatalf("final violation kind = %v, want deadlock", last.Kind)
	}
	if len(last.Packets) == 0 {
		t.Error("deadlock violation names no packets")
	}
	got := w.Report() + "\n"
	golden := filepath.Join("testdata", "deadlock_report.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("deadlock report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFastPassSurvivesDeadlockFixture runs the identical wedging burst
// with FastPass attached and a watchful watchdog: every packet must
// deliver and no invariant may trip — the measured form of the paper's
// deadlock-freedom lemmas.
func TestFastPassSurvivesDeadlockFixture(t *testing.T) {
	n := buildDeadlockNet()
	fastpass.Attach(n, fastpass.Params{})
	w := invariant.Attach(n, invariant.Options{Stride: 16, DeadlockWindow: 4096})
	total := offerBurst(n)
	delivered := 0
	for _, nc := range n.NICs {
		nc.OnEject = func(*message.Packet) { delivered++ }
	}
	for i := 0; i < 400000 && delivered < total && !w.Tripped(); i++ {
		n.Step()
	}
	if w.Tripped() {
		t.Fatalf("watchdog tripped under FastPass:\n%s", w.Report())
	}
	if delivered != total {
		t.Fatalf("FastPass delivered %d of %d", delivered, total)
	}
	if w.Leaks() != 0 {
		t.Errorf("FastPass run leaked %d credits:\n%s", w.Leaks(), w.Report())
	}
}

// TestConservationTrips plants a phantom packet in the ledger (an
// Enqueued bump with no packet behind it) and expects the conservation
// check to call it out.
func TestConservationTrips(t *testing.T) {
	n := buildDeadlockNet()
	w := invariant.Attach(n, invariant.Options{Stride: 8})
	n.NICs[0].EnqueueSource(message.NewPacket(1, 0, 5, message.Request, 1, 0))
	n.NICs[3].Enqueued++ // phantom: counted but never created
	for i := 0; i < 64 && !w.Tripped(); i++ {
		n.Step()
	}
	if !w.Tripped() {
		t.Fatal("phantom packet did not trip conservation")
	}
	if got := w.Violations()[0].Kind; got != invariant.Conservation {
		t.Fatalf("kind = %v, want conservation", got)
	}
}

// TestStarvationOnStalledConsumer wedges one NIC's consumer via the
// fault-injection Stall hook and expects the starvation watchdog to
// fire naming exactly the traffic bound for that node.
func TestStarvationOnStalledConsumer(t *testing.T) {
	n := buildDeadlockNet()
	const victim = 5
	n.NICs[victim].Stall = func(int, int64) bool { return true }
	w := invariant.Attach(n, invariant.Options{Stride: 8, StarveBound: 256})
	n.NICs[0].EnqueueSource(message.NewPacket(1, 0, victim, message.Request, 1, 0))
	n.NICs[2].EnqueueSource(message.NewPacket(2, 2, victim, message.Response, 3, 0))
	for i := 0; i < 4096 && !w.Tripped(); i++ {
		n.Step()
	}
	if !w.Tripped() {
		t.Fatal("stalled consumer did not trip the watchdog")
	}
	v := w.Violations()[len(w.Violations())-1]
	if v.Kind != invariant.Starvation {
		t.Fatalf("kind = %v, want starvation:\n%s", v.Kind, v.Report)
	}
	// The set holds every packet past the bound at trip time: packet 1
	// certainly (it arrived first); packet 2 only if its later arrival
	// has also aged past the bound by then. Nothing else may appear.
	if len(v.Packets) == 0 || v.Packets[0] != 1 {
		t.Fatalf("starved set = %v, want it to start with packet 1", v.Packets)
	}
	for _, id := range v.Packets {
		if id != 1 && id != 2 {
			t.Errorf("unexpected starved packet %d (only traffic to the stalled node can starve)", id)
		}
	}
}

// TestSamplingDoesNotAllocate pins the watchdog's cost contract: on a
// wedged (worst-case occupancy) network, sampling every single cycle
// allocates nothing.
func TestSamplingDoesNotAllocate(t *testing.T) {
	n := buildDeadlockNet()
	w := invariant.Attach(n, invariant.Options{
		Stride: 1, DeadlockWindow: 1 << 40, StarveBound: 1 << 40, LeakBound: 1 << 40,
	})
	offerBurst(n)
	n.Run(5000) // wedge, and warm every scratch structure
	if w.Tripped() {
		t.Fatalf("watchdog tripped with infinite bounds:\n%s", w.Report())
	}
	allocs := testing.AllocsPerRun(200, func() { n.Step() })
	if allocs != 0 {
		t.Errorf("watchdog sampling allocates %.2f per cycle, want 0", allocs)
	}
}
