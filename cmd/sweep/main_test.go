package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestParseSchemes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		list    string
		want    []string
		wantErr string
	}{
		{name: "plain", list: "FastPass,SPIN", want: []string{"FastPass", "SPIN"}},
		{name: "trims spaces", list: "FastPass, SPIN ,\tEscapeVC", want: []string{"FastPass", "SPIN", "EscapeVC"}},
		{name: "duplicate rejected", list: "FastPass,SPIN,FastPass", wantErr: "duplicate scheme"},
		{name: "duplicate after trim rejected", list: "SPIN, SPIN", wantErr: "duplicate scheme"},
		{name: "empty element", list: "FastPass,,SPIN", wantErr: "empty scheme"},
		{name: "unknown scheme", list: "FastPass,NoSuch", wantErr: "NoSuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names, schemes, err := parseSchemes(tc.list)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != len(tc.want) || len(schemes) != len(tc.want) {
				t.Fatalf("got %v (%d schemes), want %v", names, len(schemes), tc.want)
			}
			for i := range tc.want {
				if names[i] != tc.want[i] {
					t.Errorf("name[%d] = %q, want %q", i, names[i], tc.want[i])
				}
			}
		})
	}
}

func TestBuildRateGrid(t *testing.T) {
	for _, tc := range []struct {
		name           string
		min, max, step float64
		want           []float64
		wantErr        string
	}{
		{name: "plain", min: 0.02, max: 0.10, step: 0.04, want: []float64{0.02, 0.06, 0.1}},
		{name: "endpoint survives float drift", min: 0.1, max: 0.3, step: 0.1, want: []float64{0.1, 0.2, 0.3}},
		{name: "single point", min: 0.05, max: 0.05, step: 0.02, want: []float64{0.05}},
		{name: "zero step rejected", min: 0.02, max: 0.3, step: 0, wantErr: "must be positive"},
		{name: "negative step rejected", min: 0.02, max: 0.3, step: -0.01, wantErr: "must be positive"},
		{name: "inverted range rejected", min: 0.3, max: 0.02, step: 0.02, wantErr: "ordered"},
		{name: "non-positive min rejected", min: 0, max: 0.3, step: 0.02, wantErr: "positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := buildRateGrid(tc.min, tc.max, tc.step)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("grid %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("rate[%d] = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestBuildConfigValidation(t *testing.T) {
	if _, err := buildConfig("FastPass", "NoSuchPattern", 4, 1, 0.02, 0.1, 0.02, 1); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := buildConfig("FastPass", "Uniform", 0, 1, 0.02, 0.1, 0.02, 1); err == nil {
		t.Error("zero mesh accepted")
	}
	cfg, err := buildConfig(" FastPass , SPIN", "Transpose", 4, 9, 0.02, 0.1, 0.04, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.names[0] != "FastPass" || cfg.names[1] != "SPIN" || len(cfg.rates) != 3 {
		t.Errorf("config %+v not normalized", cfg)
	}
}

// goodFlags is a baseline flagValues every validateFlags case mutates.
func goodFlags() flagValues {
	return flagValues{
		schemes: "FastPass,EscapeVC", pattern: "Uniform",
		size: 4, seed: 1,
		rateMin: 0.02, rateMax: 0.1, rateStep: 0.02, faultScale: 1,
		watchdog: "on", shards: 1, telemetryWindow: 1000,
	}
}

// TestValidateFlags drives every cross-flag rule through the one
// consolidated validator, checking each rejection names the flag at
// fault.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mod     func(*flagValues)
		wantErr string
	}{
		{name: "baseline ok", mod: func(*flagValues) {}},
		{name: "faults plan ok", mod: func(fv *flagValues) { fv.faults = "linkfail:rate=1e-3,dur=32" }},
		{name: "resilience ok", mod: func(fv *flagValues) {
			fv.faults = "linkfail:rate=1e-3,dur=32"
			fv.faultScales = "0,1,2"
		}},
		{name: "bad scheme", mod: func(fv *flagValues) { fv.schemes = "NoSuch" }, wantErr: "NoSuch"},
		{name: "bad pattern", mod: func(fv *flagValues) { fv.pattern = "NoSuch" }, wantErr: "pattern"},
		{name: "one-node mesh", mod: func(fv *flagValues) { fv.size = 1 }, wantErr: "2x2"},
		{name: "rate above one", mod: func(fv *flagValues) { fv.rateMax = 2 }, wantErr: "[0, 1]"},
		{name: "bad rate grid", mod: func(fv *flagValues) { fv.rateStep = -1 }, wantErr: "step"},
		{name: "bad fault plan", mod: func(fv *flagValues) { fv.faults = "linkfail:rate=2" }, wantErr: "-faults"},
		{name: "zero fault scale", mod: func(fv *flagValues) { fv.faultScale = 0 }, wantErr: "-faultscale"},
		{name: "negative fault scale", mod: func(fv *flagValues) { fv.faultScale = -1 }, wantErr: "-faultscale"},
		{name: "bad watchdog", mod: func(fv *flagValues) { fv.watchdog = "stride=no" }, wantErr: "-watchdog"},
		{name: "bad shards", mod: func(fv *flagValues) { fv.shards = -3 }, wantErr: "-shards"},
		{name: "bad telemetry window", mod: func(fv *flagValues) { fv.telemetryWindow = 0 }, wantErr: "-telemetry-window"},
		{name: "scales without plan", mod: func(fv *flagValues) { fv.faultScales = "0,1" }, wantErr: "-faults"},
		{name: "negative scale", mod: func(fv *flagValues) {
			fv.faults = "linkfail:rate=1e-3,dur=32"
			fv.faultScales = "0,-1"
		}, wantErr: "-fault-scales"},
		{name: "telemetry with resilience", mod: func(fv *flagValues) {
			fv.faults = "linkfail:rate=1e-3,dur=32"
			fv.faultScales = "0,1"
			fv.telemetryPath = "out.jsonl"
		}, wantErr: "-telemetry"},
		{name: "minbd resilience", mod: func(fv *flagValues) {
			fv.schemes = "FastPass,MinBD"
			fv.faults = "linkfail:rate=1e-3,dur=32"
			fv.faultScales = "0,1"
		}, wantErr: "MinBD"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fv := goodFlags()
			tc.mod(&fv)
			cfg, err := validateFlags(fv)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if fv.faultScales != "" && len(cfg.scales) == 0 {
				t.Error("resilience scales not carried into the config")
			}
		})
	}
}

// quickSweepConfig is a deliberately tiny deterministic sweep used by
// the golden and equivalence tests.
func quickSweepConfig(jobs int) sweepConfig {
	cfg, err := buildConfig("FastPass,EscapeVC,TFC", "Transpose", 4, 7, 0.02, 0.50, 0.12, jobs)
	if err != nil {
		panic("sweep: test config invalid: " + err.Error())
	}
	cfg.warmup, cfg.measure, cfg.drain = 300, 900, 600
	return cfg
}

// TestSweepCSVGolden pins the full CSV output at quick scale. Refresh
// with `go test ./cmd/sweep -run Golden -update` after an intentional
// simulator change.
func TestSweepCSVGolden(t *testing.T) {
	got, reports := sweepCSV(quickSweepConfig(1))
	if len(reports) != 0 {
		t.Fatalf("healthy quick sweep produced abort reports: %v", reports)
	}
	path := filepath.Join("testdata", "quick_sweep.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("CSV drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSweepCSVJobsEquivalence is the CLI-level determinism contract:
// -j 1 and -j 8 must emit byte-identical CSV.
func TestSweepCSVJobsEquivalence(t *testing.T) {
	serial, _ := sweepCSV(quickSweepConfig(1))
	parallel8, _ := sweepCSV(quickSweepConfig(8))
	if serial != parallel8 {
		t.Errorf("-j 1 and -j 8 CSVs differ:\n--- -j 1 ---\n%s--- -j 8 ---\n%s", serial, parallel8)
	}
}

// TestSweepAbortStillWritesCSV is the abort-path contract: when the
// watchdog kills a point, the CSV still comes back complete (the dead
// point as an empty cell) alongside the structured report — the command
// prints both and exits nonzero instead of silently reporting the run
// as converged.
func TestSweepAbortStillWritesCSV(t *testing.T) {
	cfg, err := buildConfig("EscapeVC", "Uniform", 4, 7, 0.05, 0.05, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.warmup, cfg.measure, cfg.drain = 300, 2000, 300
	// A permanently wedged consumer plus a tight starvation bound kills
	// the run mid-measure.
	cfg.faults = "stallconsumer:node=5,at=100,perm"
	cfg.faultScale = 1
	cfg.watchdog = "stride=16,starve=512"
	csv, reports := sweepCSV(cfg)
	if len(reports) == 0 {
		t.Fatal("wedged sweep produced no abort report")
	}
	if !strings.Contains(reports[0], "starvation") {
		t.Errorf("abort report does not mention starvation:\n%s", reports[0])
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 || lines[0] != "rate,EscapeVC" {
		t.Fatalf("partial CSV malformed:\n%s", csv)
	}
	if lines[1] != "0.050," {
		t.Errorf("aborted point should be an empty cell, got %q", lines[1])
	}
}

// TestResilienceCSVShape runs the resilience experiment end to end at
// quick scale and sanity-checks the CSV accounting columns.
func TestResilienceCSVShape(t *testing.T) {
	cfg, err := buildConfig("FastPass,EscapeVC", "Uniform", 4, 7, 0.05, 0.05, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.warmup, cfg.measure, cfg.drain = 300, 800, 400
	cfg.faults = "linkfail:rate=0.002,dur=64;creditloss:rate=0.001"
	cfg.watchdog = "on"
	cfg.scales = []float64{0, 1}
	csv, _ := resilienceCSV(cfg)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header + 4 rows, got %d lines:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "scheme,scale,created,delivered,stranded") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "FastPass,0,") || !strings.HasPrefix(lines[3], "EscapeVC,0,") {
		t.Errorf("rows not scheme-major:\n%s", csv)
	}
}
