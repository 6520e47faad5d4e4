package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
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
			schemes, err := parseSchemes(tc.list)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(schemes) != len(tc.want) {
				t.Fatalf("got %v, want %v", schemes, tc.want)
			}
			for i := range tc.want {
				if schemes[i].String() != tc.want[i] {
					t.Errorf("scheme[%d] = %v, want %q", i, schemes[i], tc.want[i])
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
		{name: "step finer than the rounding rejected", min: 0.02, max: 0.0212, step: 0.0004, wantErr: "-rate-step"},
		{name: "NaN min rejected", min: math.NaN(), max: 0.3, step: 0.02, wantErr: "positive"},
		{name: "NaN step rejected", min: 0.02, max: 0.3, step: math.NaN(), wantErr: "must be positive"},
		{name: "infinite max rejected", min: 0.02, max: math.Inf(1), step: 1, wantErr: "[0, 1]"},
		{name: "infinite step rejected", min: 0.02, max: 0.3, step: math.Inf(1), wantErr: "finite"},
		{name: "max above 1 rejected", min: 0.02, max: 2, step: 0.5, wantErr: "[0, 1]"},
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
	if _, err := parse([]string{"-pattern", "NoSuchPattern"}); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := parse([]string{"-size", "0"}); err == nil {
		t.Error("zero mesh accepted")
	}
	cfg, err := parse([]string{"-schemes", " FastPass , SPIN", "-pattern", "Transpose", "-size", "4", "-rate-max", "0.1", "-rate-step", "0.04"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.schemes[0] != sim.FastPass || cfg.schemes[1] != sim.SPIN || len(cfg.rates) != 3 {
		t.Errorf("config %+v not normalized", cfg)
	}
	if _, err := parse([]string{"-h"}); err != flag.ErrHelp {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}

// goodArgs is the baseline command line every TestValidateFlags row
// extends; a later flag overrides an earlier one.
var goodArgs = []string{"-schemes", "FastPass,EscapeVC", "-size", "4"}

// TestValidateFlags drives every rule through parse, checking each
// rejection names what is at fault.
func TestValidateFlags(t *testing.T) {
	const plan = "linkfail:rate=1e-3,dur=32"
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "baseline ok"},
		{name: "faults plan ok", args: []string{"-faults", plan}},
		{name: "resilience ok", args: []string{"-faults", plan, "-fault-scales", "0,1,2"}},
		{name: "bad scheme", args: []string{"-schemes", "NoSuch"}, wantErr: "NoSuch"},
		{name: "bad pattern", args: []string{"-pattern", "NoSuch"}, wantErr: "pattern"},
		{name: "one-node mesh", args: []string{"-size", "1"}, wantErr: "2x2"},
		{name: "rate above one", args: []string{"-rate-max", "2"}, wantErr: "[0, 1]"},
		{name: "bad rate grid", args: []string{"-rate-step", "-1"}, wantErr: "step"},
		{name: "bad fault plan", args: []string{"-faults", "linkfail:rate=2"}, wantErr: "faults"},
		{name: "event outside the mesh", args: []string{"-faults", "portstall:node=99,port=1,at=10"}, wantErr: "port (99,1) outside topology"},
		{name: "repeated scale", args: []string{"-faults", plan, "-fault-scales", "1,1"}, wantErr: "appears twice"},
		{name: "zero fault scale", args: []string{"-faultscale", "0"}, wantErr: "-faultscale"},
		{name: "negative fault scale", args: []string{"-faultscale", "-1"}, wantErr: "fault scale"},
		{name: "bad watchdog", args: []string{"-watchdog", "stride=no"}, wantErr: "watchdog"},
		{name: "negative jobs", args: []string{"-j", "-1"}, wantErr: "-j"},
		{name: "bad telemetry window", args: []string{"-telemetry-window", "0"}, wantErr: "-telemetry-window"},
		{name: "scales without plan", args: []string{"-fault-scales", "0,1"}, wantErr: "-faults"},
		{name: "negative scale", args: []string{"-faults", plan, "-fault-scales", "0,-1"}, wantErr: "fault scale"},
		{name: "telemetry with resilience", args: []string{"-faults", plan, "-fault-scales", "0,1", "-telemetry", "out.jsonl"}, wantErr: "-telemetry"},
		{name: "minbd resilience", args: []string{"-schemes", "FastPass,MinBD", "-faults", plan, "-fault-scales", "0,1"}, wantErr: "MinBD"},
		{name: "rate grid with resilience", args: []string{"-faults", plan, "-fault-scales", "0,1", "-rate-max", "0.1"}, wantErr: "-rate-min"},
		{name: "rate step with resilience", args: []string{"-faults", plan, "-fault-scales", "0,1", "-rate-step", "0.01"}, wantErr: "-rate-step"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parse(append(slices.Clone(goodArgs), tc.args...))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(tc.args, "-fault-scales") && len(cfg.scales) == 0 {
				t.Error("resilience scales not carried into the config")
			}
		})
	}
}

// quickSweepConfig is a deliberately tiny deterministic sweep used by
// the golden and equivalence tests.
func quickSweepConfig(jobs int, extra ...string) sweepConfig {
	cfg, err := parse(append([]string{"-schemes", "FastPass,EscapeVC,TFC", "-pattern", "Transpose", "-size", "4", "-seed", "7",
		"-rate-max", "0.50", "-rate-step", "0.12", "-j", strconv.Itoa(jobs)}, extra...))
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

// TestSweepTelemetryJobsInvariant: the -telemetry file is byte-identical
// at -j 1 and -j 8. The grid runs past saturation, so it also checks
// that padded points, which never run, leave no stream behind.
func TestSweepTelemetryJobsInvariant(t *testing.T) {
	var files [2][]byte
	for k, jobs := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "sweep.jsonl")
		cfg := quickSweepConfig(jobs, "-telemetry", path, "-telemetry-window", "300")
		if _, reports := sweepCSV(cfg); len(reports) != 0 {
			t.Fatalf("-j %d: healthy quick sweep produced abort reports: %v", jobs, reports)
		}
		if err := cfg.telemetry.writeFile(path); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[k], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(files[0]) == 0 {
		t.Fatal("sweep telemetry emitted nothing")
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("telemetry file differs between -j 1 and -j 8 (len %d vs %d)", len(files[0]), len(files[1]))
	}
}

// TestSweepTelemetryGolden pins the -telemetry bytes of the quick
// sweep, whose grid runs past saturation: every run that ran, in
// (scheme, rate) order, and nothing for the padded points.
func TestSweepTelemetryGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfg := quickSweepConfig(2, "-telemetry", path, "-telemetry-window", "300")
	if _, reports := sweepCSV(cfg); len(reports) != 0 {
		t.Fatalf("healthy quick sweep produced abort reports: %v", reports)
	}
	if err := cfg.telemetry.writeFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick_sweep_telemetry.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("telemetry drifted from golden (len %d vs %d)", len(got), len(want))
	}
}

// TestSweepAbortStillWritesCSV is the abort-path contract: when the
// watchdog kills a point, the CSV still comes back complete (the dead
// point as an empty cell) alongside the structured report — the command
// prints both and exits nonzero instead of silently reporting the run
// as converged.
func TestSweepAbortStillWritesCSV(t *testing.T) {
	// A permanently wedged consumer plus a tight starvation bound kills
	// the run mid-measure.
	cfg, err := parse([]string{"-schemes", "EscapeVC", "-size", "4", "-seed", "7", "-rate-min", "0.05", "-rate-max", "0.05", "-j", "1",
		"-faults", "stallconsumer:node=5,at=100,perm", "-watchdog", "stride=16,starve=512"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.warmup, cfg.measure, cfg.drain = 300, 2000, 300
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
	cfg, err := parse([]string{"-schemes", "FastPass,EscapeVC", "-size", "4", "-seed", "7", "-rate-min", "0.05", "-j", "1",
		"-faults", "linkfail:rate=0.002,dur=64;creditloss:rate=0.001", "-fault-scales", "0,1"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.warmup, cfg.measure, cfg.drain = 300, 800, 400
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

// TestResilienceCSVGolden pins the resilience CSV of every fault
// category on three schemes, at -j 1 and -j 8. The scale-0 rows are the
// fault-free control: a plan left in place there shows up as nonzero
// fault counters, and a row that delivered nothing ran without traffic.
func TestResilienceCSVGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quick_resilience.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range strings.Split(strings.TrimSpace(string(want)), "\n")[1:] {
		if f := strings.Split(row, ","); f[1] == "0" && f[3] == "0" {
			t.Errorf("scale-0 row delivered no packets: %s", row)
		}
	}
	for _, jobs := range []int{1, 8} {
		cfg, err := parse([]string{"-schemes", "FastPass,EscapeVC,Pitstop", "-size", "4", "-seed", "7", "-rate-min", "0.05",
			"-faults", "linkfail:rate=0.002,dur=64;portstall:rate=0.002,dur=32;corrupt:rate=0.001;creditloss:rate=0.001;stallconsumer:rate=0.0005,dur=128",
			"-fault-scales", "0,0.5,1", "-j", strconv.Itoa(jobs)})
		if err != nil {
			t.Fatal(err)
		}
		if got, reports := resilienceCSV(cfg); got != string(want) || len(reports) != 0 {
			t.Errorf("-j %d: CSV drifted from golden (reports %v):\n--- got ---\n%s--- want ---\n%s", jobs, reports, got, want)
		}
	}
}
