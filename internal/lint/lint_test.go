package lint

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture loads one fixture tree from testdata/src. The /... walk picks
// up helper sub-packages, which the cross-package fixtures (dettaint,
// hotalloc2) rely on.
func fixture(t *testing.T, name string) []*Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./internal/lint/testdata/src/" + name + "/...")
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return pkgs
}

// render joins findings into golden-file form.
func render(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against testdata/golden/<name>.golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenPerAnalyzer runs each analyzer over its fixture package and
// compares against the golden transcript. Suppressed instances inside
// the fixtures must not appear.
func TestGoldenPerAnalyzer(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			got := render(Run(fixture(t, a.Name()), []Analyzer{a}))
			if got == "" {
				t.Fatalf("%s fixture produced no findings", a.Name())
			}
			checkGolden(t, a.Name(), got)
		})
	}
}

// TestSuppressionFiltering proves the //nocvet:ignore directive is what
// hides the fixtures' suppressed cases: the raw analyzer sees more
// findings than the filtered Run.
func TestSuppressionFiltering(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			pkgs := fixture(t, a.Name())
			raw := 0
			if pa, ok := a.(ProgramAnalyzer); ok {
				raw = len(pa.RunProgram(BuildProgram(pkgs)))
			} else {
				for _, p := range pkgs {
					raw += len(a.Run(p))
				}
			}
			filtered := len(Run(pkgs, []Analyzer{a}))
			if raw != filtered+1 {
				t.Errorf("raw=%d filtered=%d; each fixture carries exactly one suppressed case", raw, filtered)
			}
		})
	}
}

// TestSuppressionPlacement checks both sanctioned comment positions.
func TestSuppressionPlacement(t *testing.T) {
	pkgs := fixture(t, "cyclewidth") // trailing same-line directive
	for _, f := range Run(pkgs, []Analyzer{CycleWidth{}}) {
		if f.Pos.Line == 44 {
			t.Errorf("same-line suppression ignored: %s", f)
		}
	}
	pkgs = fixture(t, "dettaint") // line-above directive
	for _, f := range Run(pkgs, []Analyzer{DetTaint{}}) {
		if strings.HasSuffix(f.Pos.Filename, "/dettaint.go") && f.Pos.Line == 59 {
			t.Errorf("line-above suppression ignored: %s", f)
		}
	}
}

// TestCleanFixture keeps the negative fixture negative under the whole
// suite.
func TestCleanFixture(t *testing.T) {
	if fs := Run(fixture(t, "clean"), All()); len(fs) != 0 {
		t.Errorf("clean fixture has findings: %v", fs)
	}
}

// TestHostInputsScopedToInternal: a clock read or global-rand call is
// a finding where it is made only under internal/; cmd and example
// binaries may read the clock off the hot path.
func TestHostInputsScopedToInternal(t *testing.T) {
	pkgs := fixture(t, "dettaint")
	for _, p := range pkgs {
		p.Path = strings.Replace(p.Path, "/internal/", "/cmd/", 1)
	}
	for _, f := range (DetTaint{}).RunProgram(BuildProgram(pkgs)) {
		if strings.Contains(f.Msg, "in simulation code") {
			t.Errorf("host-input site finding outside internal/: %s", f)
		}
	}
}

// TestHotAllocScopedToHotPath: hotalloc2 checks what the hot roots
// reach, nothing else — cold(), unreached, and rederive's subtree below
// its //nocvet:cold boundary (every function after step) allocate
// freely, whatever package they sit in.
func TestHotAllocScopedToHotPath(t *testing.T) {
	for _, f := range Run(fixture(t, "hotalloc2"), []Analyzer{HotAlloc2{}}) {
		if strings.HasSuffix(f.Pos.Filename, "/hotalloc2.go") && f.Pos.Line > 36 {
			t.Errorf("finding outside the hot closure: %s", f)
		}
	}
}

// TestStaleSuppressions: a directive naming an unknown rule is a
// finding, and so is one whose rule ran and silenced nothing; a rule
// left out by -rules does not judge its directives.
func TestStaleSuppressions(t *testing.T) {
	pkgs := fixture(t, "stale")
	checkGolden(t, "stale", render(Run(pkgs, All())))
	if fs := Run(pkgs, []Analyzer{PanicStyle{}}); len(fs) != 1 || !strings.Contains(fs[0].Msg, "unknown rule") {
		t.Errorf("-rules panicstyle: got %v, want only the unknown-rule finding", fs)
	}
}

// TestEveryAnalyzerEarnsItsPlace: with the whole suite run over an
// analyzer's fixture, that analyzer reports at least one position no
// other analyzer reports — none of the five is covered by the rest.
func TestEveryAnalyzerEarnsItsPlace(t *testing.T) {
	for _, a := range All() {
		fs := Run(fixture(t, a.Name()), All())
		others := map[token.Position]bool{}
		for _, f := range fs {
			if f.Rule != a.Name() {
				others[f.Pos] = true
			}
		}
		unique := 0
		for _, f := range fs {
			if f.Rule == a.Name() && !others[f.Pos] {
				unique++
			}
		}
		if unique == 0 {
			t.Errorf("%s reports nothing on its fixture that another analyzer does not", a.Name())
		}
	}
}

// TestDriverExitCodes exercises cmd/nocvet's in-process entry point.
func TestDriverExitCodes(t *testing.T) {
	run := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := Main(args, ".", &out, &errb)
		return code, out.String(), errb.String()
	}

	if code, out, _ := run("./internal/lint/testdata/src/clean"); code != ExitClean || out != "" {
		t.Errorf("clean fixture: code=%d out=%q, want 0 and empty", code, out)
	}
	code, out, errb := run("./internal/lint/testdata/src/panicstyle")
	if code != ExitFindings {
		t.Errorf("panicstyle fixture: code=%d, want %d (stderr: %s)", code, ExitFindings, errb)
	}
	if !strings.Contains(out, "panicstyle:") || !strings.Contains(errb, "finding(s)") {
		t.Errorf("driver output missing findings: out=%q errb=%q", out, errb)
	}
	if code, _, _ := run("-rules", "cyclewidth", "./internal/lint/testdata/src/panicstyle"); code != ExitClean {
		t.Errorf("-rules subset should skip panicstyle findings, got code=%d", code)
	}
	if code, _, _ := run("-rules", "bogus", "./internal/lint/testdata/src/clean"); code != ExitError {
		t.Errorf("unknown rule: code=%d, want %d", code, ExitError)
	}
	if code, _, _ := run("./no/such/dir"); code != ExitError {
		t.Errorf("missing dir: code=%d, want %d", code, ExitError)
	}
	if code, _, _ := run(); code != ExitError {
		t.Errorf("no packages: code=%d, want %d", code, ExitError)
	}
	if code, out, _ := run("-list"); code != ExitClean || len(strings.Split(strings.TrimSpace(out), "\n")) != len(All()) {
		t.Errorf("-list: code=%d out=%q", code, out)
	}
}

// TestRepoIsClean is the acceptance bar: the tree must stay free of
// unsuppressed findings, the same check CI runs.
func TestRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"./..."}, ".", &out, &errb); code != ExitClean {
		t.Errorf("nocvet ./... = %d, want 0\n%s%s", code, out.String(), errb.String())
	}
}
