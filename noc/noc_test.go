package noc_test

import (
	"math"
	"testing"

	"repro/noc"
)

func TestSchemeRegistry(t *testing.T) {
	schemes := []noc.Scheme{noc.FastPass, noc.EscapeVC, noc.SPIN, noc.SWAP, noc.DRAIN, noc.Pitstop, noc.MinBD, noc.TFC}
	for _, s := range schemes {
		got, err := noc.ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%v): %v, %v", s, got, err)
		}
	}
}

func TestPatternRegistry(t *testing.T) {
	patterns := []noc.Pattern{noc.Uniform, noc.Transpose, noc.Shuffle, noc.BitRotation, noc.BitComplement, noc.Hotspot}
	seen := map[string]bool{}
	for _, p := range patterns {
		if seen[p.String()] {
			t.Errorf("duplicate pattern %v", p)
		}
		seen[p.String()] = true
		got, err := noc.ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%v): %v, %v", p, got, err)
		}
	}
	if _, err := noc.ParsePattern("Nope"); err == nil {
		t.Error("unknown pattern accepted")
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
