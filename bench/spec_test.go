package main

import (
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is the contract the driver reads; the tables in this
// package are what the program prints. They must say the same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	sp := mustSpec(t)

	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", sp.Paths)
	}
	if len(sp.Command) == 0 || sp.Command[len(sp.Command)-1] != "./bench" {
		t.Errorf("command = %v, want it to end in ./bench", sp.Command)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's -seconds default is %d", sp.RunSeconds, defaultSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	ws := workloads()
	if len(ws) != len(sp.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(ws), len(sp.Workloads))
	}
	known := map[string]bool{}
	for i, w := range ws {
		unique(w.name)
		known[w.name] = true
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program %q / %q", i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}

	if len(endToEnd) != len(sp.EndToEnd) {
		t.Fatalf("program has %d end-to-end metrics, BENCHMARK.json %d", len(endToEnd), len(sp.EndToEnd))
	}
	e2e := map[string]bool{}
	var maxBound float64
	for i, m := range sp.EndToEnd {
		unique(m.Name)
		e2e[m.Name] = true
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range sp.EndToEnd {
		if m.Name == mSetup && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower-is-better, with the largest bound: %+v (largest %v)", m, maxBound)
		}
	}
	if !e2e[mSetup] {
		t.Error("no setup_s metric")
	}

	layers := layerMetrics()
	if len(layers) != len(sp.PerLayer) {
		t.Fatalf("program has %d per-layer metrics, BENCHMARK.json %d", len(layers), len(sp.PerLayer))
	}
	for i, m := range layers {
		unique(m.name)
		got := sp.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != 0 {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, program %s [%s] %s", i, got, m.name, m.unit, m.better)
		}
		// Every per-layer metric names the end-to-end metric it should
		// move and the workloads where it should: both must exist.
		if !e2e[m.moves] {
			t.Errorf("%s should move %q, which is not an end-to-end metric", m.name, m.moves)
		}
		if len(m.on) == 0 {
			t.Errorf("%s names no workload", m.name)
		}
		for _, w := range m.on {
			if !known[w] {
				t.Errorf("%s should move on %q, which is not a workload", m.name, w)
			}
		}
		if m.source != "T" && m.source != "C" && m.source != "P" {
			t.Errorf("%s: source %q", m.name, m.source)
		}
	}
}
