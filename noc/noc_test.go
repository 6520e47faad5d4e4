package noc_test

import (
	"math"
	"testing"

	"repro/noc"
)

func TestSchemeRegistry(t *testing.T) {
	if len(noc.Schemes()) != 8 {
		t.Fatalf("expected the paper's 8 schemes, got %d", len(noc.Schemes()))
	}
	for _, s := range noc.Schemes() {
		got, err := noc.ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%v): %v, %v", s, got, err)
		}
	}
}

func TestPatternRegistry(t *testing.T) {
	if len(noc.Patterns()) < 4 {
		t.Fatal("missing patterns")
	}
	seen := map[string]bool{}
	for _, p := range noc.Patterns() {
		if seen[p.String()] {
			t.Errorf("duplicate pattern %v", p)
		}
		seen[p.String()] = true
	}
}

func TestRunSyntheticSmoke(t *testing.T) {
	res := noc.RunSynthetic(noc.SynthConfig{
		Options: noc.Options{Scheme: noc.FastPass, W: 4, H: 4, Seed: 1},
		Pattern: noc.Uniform,
		Rate:    0.05,
		Warmup:  500, Measure: 2000, Drain: 1500,
	})
	if res.Samples == 0 || math.IsNaN(res.AvgLatency) {
		t.Fatal("no measurements")
	}
	if res.Saturated {
		t.Fatal("saturated at 0.05 on 4x4")
	}
}

func TestRunAppSmoke(t *testing.T) {
	app, err := noc.GetApp("Volrend")
	if err != nil {
		t.Fatal(err)
	}
	app.WorkQuota = 200
	res := noc.RunApp(noc.AppConfig{
		Options:   noc.Options{Scheme: noc.Pitstop, W: 4, H: 4, Seed: 5},
		App:       app,
		MaxCycles: 200000,
	})
	if res.Timeout || res.Completed < 200 {
		t.Fatalf("app run failed: %+v", res)
	}
}

func TestAppNames(t *testing.T) {
	names := noc.AppNames()
	if len(names) != 8 {
		t.Fatalf("expected 8 app profiles, got %v", names)
	}
	if _, err := noc.GetApp("NotAnApp"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestTable1Shape(t *testing.T) {
	rows := noc.Table1()
	if len(rows) != 8 {
		t.Fatalf("Table I has 8 rows, got %d", len(rows))
	}
	if rows[len(rows)-1].Solution != "FastPass" {
		t.Error("FastPass must be the last row")
	}
	// FastPass is the only row with every column affirmative.
	for _, r := range rows {
		all := r.NoDetection && r.ProtocolFree && r.NetworkFree &&
			r.FullPathDiversity && r.HighThroughput && r.LowPower &&
			r.Scalable && r.NoMisrouting
		if all != (r.Solution == "FastPass") {
			t.Errorf("%s: all-yes = %v", r.Solution, all)
		}
	}
}

func TestFig11API(t *testing.T) {
	cfgs := noc.Fig11Configs()
	if len(cfgs) != 6 {
		t.Fatalf("Fig. 11 has 6 configurations, got %d", len(cfgs))
	}
	for _, c := range cfgs {
		r := noc.EstimatePowerArea(c)
		if r.Area.Total() <= 0 || r.Power.Total() <= 0 {
			t.Errorf("%s: non-positive estimate", c.Name)
		}
	}
}

func TestSaturationThroughputAPI(t *testing.T) {
	base := noc.SynthConfig{
		Options: noc.Options{Scheme: noc.EscapeVC, W: 4, H: 4, Seed: 1},
		Pattern: noc.Uniform,
		Warmup:  500, Measure: 1000, Drain: 1000,
	}
	rate, thr := noc.SaturationThroughput(base, 0.01, 0.8, 4)
	if rate <= 0 || thr <= 0 {
		t.Fatalf("bisection failed: rate=%v thr=%v", rate, thr)
	}
}

func TestRunIrregular(t *testing.T) {
	cfg := noc.IrregularConfig{
		Nodes: 6,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}},
		Rate:  0.02,
		Seed:  1,
	}
	res, err := noc.RunIrregular(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.DeliveredFrac < 0.98 {
		t.Fatalf("light irregular load misbehaved: %+v", res)
	}
	if math.IsNaN(res.AvgLatency) || res.AvgLatency <= 0 {
		t.Fatalf("latency: %v", res.AvgLatency)
	}
	// Invalid topologies surface errors, not panics.
	if _, err := noc.RunIrregular(noc.IrregularConfig{Nodes: 3, Edges: [][2]int{{0, 1}}, Rate: 0.01}); err == nil {
		t.Error("disconnected topology accepted")
	}
	cfg.VCs = 65
	if _, err := noc.RunIrregular(cfg); err == nil {
		t.Error("65 VCs per port accepted; the router's request masks hold 64")
	}
}
