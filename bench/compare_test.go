package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// report fabricates a report of n runs per workload, each metric at
// base scaled by scale[metric] (default 1) with a relative jitter.
func report(sp spec, n int, jitter float64, scale map[string]float64) map[string][]runLine {
	out := map[string][]runLine{}
	for _, wl := range sp.Workloads {
		for i := 0; i < n; i++ {
			l := runLine{Workload: wl.Name, Seed: int64(i + 1), Attempted: 24, SimFingerprint: "00", Metrics: map[string]metricStat{}}
			for _, m := range sp.EndToEnd {
				f := scale[m.Name]
				if f == 0 {
					f = 1
				}
				// A deterministic ±jitter pattern across the runs.
				v := 100 * f * (1 + jitter*float64(i%3-1))
				l.Metrics[m.Name] = metricStat{Value: v, Unit: m.Unit, Values: []float64{v}}
			}
			out[wl.Name] = append(out[wl.Name], l)
		}
	}
	return out
}

func mustSpec(t *testing.T) spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestCompareVerdicts(t *testing.T) {
	sp := mustSpec(t)
	bound := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bound[m.Name] = m.Bound
	}
	// worse moves one metric past its bound by half as much again;
	// within stays at half the bound.
	worse := func(metric string, sign float64) map[string]float64 {
		return map[string]float64{metric: 1 + sign*1.5*bound[metric]}
	}
	within := func(metric string) map[string]float64 {
		return map[string]float64{metric: 1 + 0.5*bound[metric]}
	}
	base := report(sp, 10, 0.001, nil)
	cases := []struct {
		name    string
		b       map[string][]runLine
		pass    bool
		mention string
	}{
		{"identical reports pass", report(sp, 10, 0.001, nil), true, vUnchanged},
		{"wall_s up past its bound regresses", report(sp, 10, 0.001, worse(mWall, +1)), false, vRegressed},
		{"wall_s up within its bound is unchanged", report(sp, 10, 0.001, within(mWall)), true, vUnchanged},
		{"setup_s up past its bound regresses", report(sp, 10, 0.001, worse(mSetup, +1)), false, vRegressed},
		{"allocs_per_kcycle up past its bound regresses", report(sp, 10, 0.001, worse(mAllocsPKC, +1)), false, vRegressed},
		{"alloc_mb up past its bound regresses", report(sp, 10, 0.001, worse(mAllocMB, +1)), false, vRegressed},
		{"sim_cycles_per_s down past its bound regresses (higher is better)", report(sp, 10, 0.001, worse(mCyclesPS, -1)), false, vRegressed},
		{"wall_s down past its bound is an improvement", report(sp, 10, 0.001, worse(mWall, -1)), true, vImproved},
		{"a spread wider than the bound is unresolved, not unchanged", report(sp, 10, 0.30, nil), true, vUnresolved},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		pass := compareReports(sp, base, c.b, &buf)
		if pass != c.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", c.name, pass, c.pass, buf.String())
		}
		if !strings.Contains(buf.String(), c.mention) {
			t.Errorf("%s: output never says %q\n%s", c.name, c.mention, buf.String())
		}
	}
}

func TestCompareFailsOnMoreFailedOps(t *testing.T) {
	sp := mustSpec(t)
	a, b := report(sp, 3, 0.001, nil), report(sp, 3, 0.001, nil)
	b[sp.Workloads[0].Name][1].Failed = 1
	var buf bytes.Buffer
	if compareReports(sp, a, b, &buf) {
		t.Errorf("a report with a failed operation passed\n%s", buf.String())
	}
	delete(b, sp.Workloads[1].Name)
	buf.Reset()
	if compareReports(sp, a, b, &buf) {
		t.Error("a report missing a workload passed")
	}
}

// quartiles must agree with Python's statistics.quantiles(x, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if math.Abs(q1-1.25) > 1e-12 || math.Abs(q3-7) > 1e-12 {
		t.Errorf("quartiles(1,2,4,8) = %v, %v; want 1.25, 7", q1, q3)
	}
}

// Reports round-trip through -out files; smoke and traced lines are not
// comparable and are skipped. The ledger only ever grows.
func TestReportAndLedgerFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.jsonl")
	good := runLine{Workload: "fig7_uniform", Seed: 1, Attempted: 72, NProc: 2, GoVersion: "go",
		Metrics: map[string]metricStat{mWall: {Value: 4, Unit: "s"}}}
	smoke, traced := good, good
	smoke.Smoke, traced.Trace = true, 1
	for _, l := range []runLine{good, smoke, traced, good} {
		if err := appendJSONLine(path, l); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := readReport(path)
	if err != nil || len(rep["fig7_uniform"]) != 2 {
		t.Fatalf("readReport: %v, %d comparable lines, want 2", err, len(rep["fig7_uniform"]))
	}

	ledger := filepath.Join(dir, "ledger.jsonl")
	if err := appendLedger(ledger, "abc123", []runLine{good}); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(ledger)
	if err := appendLedger(ledger, "def456", []runLine{good}); err != nil {
		t.Fatal(err)
	}
	both, _ := os.ReadFile(ledger)
	if !bytes.HasPrefix(both, first) || bytes.Count(both, []byte("\n")) != 2 || !bytes.Contains(both, []byte(`"commit":"def456"`)) {
		t.Errorf("ledger after two appends:\n%s", both)
	}
}
