package lint

import (
	"strings"
	"testing"
)

// findFunc resolves a program function by full-name suffix, failing on
// ambiguity so tests stay precise.
func findFunc(t *testing.T, prog *Program, suffix string) *FuncNode {
	t.Helper()
	var match *FuncNode
	for _, n := range prog.Funcs {
		if strings.HasSuffix(n.FullName(), suffix) {
			if match != nil {
				t.Fatalf("suffix %q is ambiguous: %s and %s", suffix, match.FullName(), n.FullName())
			}
			match = n
		}
	}
	if match == nil {
		t.Fatalf("no function with suffix %q in program", suffix)
	}
	return match
}

func hasCallee(n *FuncNode, callee *FuncNode) bool {
	for _, c := range n.Callees {
		if c == callee {
			return true
		}
	}
	return false
}

// TestCallGraphEdges checks direct resolution and interface fan-out: a
// call through an interface method must produce edges to every module
// implementation.
func TestCallGraphEdges(t *testing.T) {
	prog := BuildProgram(fixture(t, "callgraph"))
	route := findFunc(t, prog, "callgraph.route")
	drive := findFunc(t, prog, "callgraph.drive")
	alphaTick := findFunc(t, prog, "callgraph.alpha).tick")
	betaTick := findFunc(t, prog, "callgraph.beta).tick")
	helperA := findFunc(t, prog, "callgraph.helperA")

	if !hasCallee(route, drive) {
		t.Errorf("route -> drive edge missing; callees: %v", names(route.Callees))
	}
	if !hasCallee(drive, alphaTick) || !hasCallee(drive, betaTick) {
		t.Errorf("interface fan-out missing from drive; callees: %v", names(drive.Callees))
	}
	if !hasCallee(alphaTick, helperA) {
		t.Errorf("alpha.tick -> helperA edge missing; callees: %v", names(alphaTick.Callees))
	}
}

func names(nodes []*FuncNode) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.FullName())
	}
	return out
}

// TestCallGraphRoots checks directive parsing: //nocvet:hot makes a hot
// root, //nocvet:cold a cold boundary, and a function only reachable
// from a hot root is not itself a root.
func TestCallGraphRoots(t *testing.T) {
	prog := BuildProgram(fixture(t, "callgraph"))
	if !findFunc(t, prog, "callgraph.hot").Hot {
		t.Error("hot not marked as hot root")
	}
	if !findFunc(t, prog, "callgraph.heal").Cold {
		t.Error("heal not marked as cold boundary")
	}
	roots := names(prog.HotRoots())
	if len(roots) != 1 || !strings.HasSuffix(roots[0], "callgraph.hot") {
		t.Errorf("HotRoots = %v, want only callgraph.hot", roots)
	}
}

// TestCallGraphReachableStops checks closure semantics: the walk
// crosses unannotated functions and interface fan-out, and stops at a
// boundary the stop function names (hotalloc2's cold rule) together
// with everything only that boundary reaches.
func TestCallGraphReachableStops(t *testing.T) {
	prog := BuildProgram(fixture(t, "callgraph"))
	hot := []*FuncNode{findFunc(t, prog, "callgraph.hot")}
	closure := prog.Reachable(hot, func(n *FuncNode) bool { return n.Cold })
	for _, suffix := range []string{"callgraph.route", "callgraph.drive", "callgraph.helperA", "callgraph.helperB"} {
		if !closure[findFunc(t, prog, suffix)] {
			t.Errorf("hot closure missing %s", suffix)
		}
	}
	for _, suffix := range []string{"callgraph.heal", "callgraph.helperC"} {
		if closure[findFunc(t, prog, suffix)] {
			t.Errorf("hot closure crossed the cold boundary into %s", suffix)
		}
	}
	if !prog.Reachable(hot, nil)[findFunc(t, prog, "callgraph.helperC")] {
		t.Error("a nil stop must cross the cold boundary")
	}
}

// TestHotRootsReachCycleEngine loads the real cycle-engine packages and
// requires the per-cycle work of a network step to be reachable from
// the hot roots, so hotalloc2 and dettaint audit it: the router's
// Step, both NIC halves, the register shift, and Router.InjectPacket,
// which runs only through the NIC.Inject func value.
func TestHotRootsReachCycleEngine(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./internal/network", "./internal/router", "./internal/nic")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	prog := BuildProgram(pkgs)
	hot := prog.Reachable(prog.HotRoots(), func(n *FuncNode) bool { return n.Cold })
	for _, suffix := range []string{
		"internal/router.Router).Step", "internal/router.Router).InjectPacket",
		"internal/nic.NIC).TickConsume", "internal/nic.NIC).TickInject",
		"internal/network.Network).shift",
	} {
		if !hot[findFunc(t, prog, suffix)] {
			t.Errorf("%s is not reachable from the hot roots", suffix)
		}
	}
}
