package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDriverJSONOutput: -json renders an indented array of findings,
// and "[]" when clean — always valid JSON either way.
func TestDriverJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := Main([]string{"-json", "./internal/lint/testdata/src/panicstyle"}, ".", &out, &errb)
	if code != ExitFindings {
		t.Fatalf("-json on panicstyle: code=%d, want %d (stderr: %s)", code, ExitFindings, errb.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json emitted an empty array for a dirty fixture")
	}
	for _, f := range findings {
		if f.Rule != "panicstyle" || f.File == "" || f.Line == 0 {
			t.Errorf("malformed finding: %+v", f)
		}
	}

	out.Reset()
	if code := Main([]string{"-json", "./internal/lint/testdata/src/clean"}, ".", &out, &errb); code != ExitClean {
		t.Fatalf("-json on clean: code=%d, want 0", code)
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("-json clean output = %q, want []", out.String())
	}
}

// TestDriverSARIFOutput: -sarif emits a 2.1.0 log whose rule table is
// the full analyzer suite.
func TestDriverSARIFOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := Main([]string{"-sarif", "./internal/lint/testdata/src/panicstyle"}, ".", &out, &errb)
	if code != ExitFindings {
		t.Fatalf("-sarif on panicstyle: code=%d, want %d (stderr: %s)", code, ExitFindings, errb.String())
	}
	var log sarifLog
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("bad SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "nocvet" {
		t.Errorf("driver name = %q, want nocvet", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(All()) {
		t.Errorf("rule table has %d entries, want %d", len(run.Tool.Driver.Rules), len(All()))
	}
	if len(run.Results) == 0 {
		t.Fatal("SARIF log has no results for a dirty fixture")
	}
	for _, r := range run.Results {
		if r.Level != "error" || r.RuleID != "panicstyle" || len(r.Locations) != 1 {
			t.Errorf("malformed result: %+v", r)
		}
	}
}

// TestDriverOutputModeConflict: -json and -sarif are mutually exclusive.
func TestDriverOutputModeConflict(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-json", "-sarif", "./internal/lint/testdata/src/clean"}, ".", &out, &errb); code != ExitError {
		t.Errorf("-json -sarif: code=%d, want %d", code, ExitError)
	}
}

// TestDriverPhaseReportFlag: -phasereport writes the shard-safety
// contract to a file (or stdout with "-") before the analyzers run, so
// it works even with a restricted -rules set.
func TestDriverPhaseReportFlag(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "phase.json")
	var out, errb bytes.Buffer
	code := Main([]string{"-phasereport", dest, "-rules", "panicstyle", "./internal/lint/testdata/src/phasesafe"}, ".", &out, &errb)
	if code != ExitClean {
		t.Fatalf("-phasereport: code=%d, want 0 (stderr: %s)", code, errb.String())
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep PhaseReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Phases) == 0 {
		t.Errorf("report has no phases: %s", data)
	}

	out.Reset()
	if code := Main([]string{"-phasereport", "-", "./internal/lint/testdata/src/clean"}, ".", &out, &errb); code != ExitClean {
		t.Fatalf("-phasereport -: code=%d, want 0", code)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"module"`)) {
		t.Errorf("stdout report missing module key: %s", out.String())
	}
}

// TestByNameListsKnown: an unknown rule error names the valid set, so a
// typo is self-correcting.
func TestByNameListsKnown(t *testing.T) {
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) succeeded")
	} else if msg := err.Error(); !strings.Contains(msg, "known:") || !strings.Contains(msg, "phasesafe") || !strings.Contains(msg, "dettaint") {
		t.Errorf("error does not list known analyzers: %v", err)
	}
}
