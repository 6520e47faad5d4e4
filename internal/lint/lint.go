// Package lint is nocvet's analysis engine: a stdlib-only static
// checker (go/parser + go/types, no x/tools) that enforces the
// simulator's determinism and invariant conventions. The whole value of
// the reproduction is that a given seed yields a bit-identical
// cycle-accurate run; these analyzers keep contributions honest about
// the properties the tests assume:
//
//	detrand    — no wall-clock or global math/rand state in internal/
//	             simulation packages; randomness must flow through an
//	             explicitly seeded *rand.Rand
//	maporder   — no ranging over a map where the body touches shared
//	             simulator state (iteration order is nondeterministic)
//	cyclewidth — cycle counters stay int64; no narrowing conversions
//	             of cycle-derived values
//	panicstyle — panic messages carry the "<pkg>: " prefix so
//	             invariant violations are attributable
//	hotalloc   — no append-prepend copies or per-cycle make calls in
//	             the hot-path packages
//	             (internal/{nic,router,network,minbd}); the steady-state
//	             zero-allocs-per-cycle contract depends on it
//	wallclock  — no reference to package time at all in
//	             internal/{faults,invariant}; fault schedules and
//	             watchdog bounds are simulated cycles, so a wedged run
//	             trips at the same cycle on every machine
//
// Three whole-program analyzers run over a type-resolved cross-package
// call graph (callgraph.go) instead of one package at a time:
//
//	phasesafe  — from //nocvet:phase annotations on the cycle-engine
//	             phase roots, computes transitive per-phase read/write
//	             sets of //nocvet:shared struct fields and flags
//	             same-phase write-then-read hazards and unbuffered
//	             fields written by two phases; -phasereport emits the
//	             derived shard-safety contract as stable JSON
//	dettaint   — interprocedural determinism taint: values derived
//	             from map iteration order, select, wall clock, or
//	             pointer identity must be laundered (sorted) before
//	             they reach fields of simulator state
//	hotalloc2  — the hotalloc idiom checks applied to everything
//	             reachable from //nocvet:hot roots, phase roots, and
//	             controller PreCycle/PostCycle — across packages
//
// Findings can be silenced with a `//nocvet:ignore <rule> <reason>`
// comment on the offending line or the line directly above it. The
// reason is mandatory by convention: a suppression is a claim that the
// flagged code is deterministic anyway, and the claim should be stated.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical `file:line:col rule: message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one rule pass over a type-checked package.
type Analyzer interface {
	// Name is the rule identifier used in reports and suppressions.
	Name() string
	// Doc is a one-line description for -help output.
	Doc() string
	// Run reports every violation in the package.
	Run(p *Package) []Finding
}

// ProgramAnalyzer is an analyzer that needs the whole program — every
// package of the run plus the cross-package call graph — rather than
// one package at a time. Its Run method is a no-op; RunProgram is
// invoked once per nocvet invocation.
type ProgramAnalyzer interface {
	Analyzer
	RunProgram(prog *Program) []Finding
}

// All returns the full analyzer suite in report order.
func All() []Analyzer {
	return []Analyzer{
		DetRand{}, MapOrder{}, CycleWidth{}, PanicStyle{}, HotAlloc{}, Wallclock{},
		PhaseSafe{}, DetTaint{}, HotAlloc2{},
	}
}

// Names lists every analyzer identifier in report order.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name())
	}
	return names
}

// ByName resolves a comma-separated rule list ("detrand,panicstyle").
func ByName(list string) ([]Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	known := map[string]Analyzer{}
	for _, a := range All() {
		known[a.Name()] = a
	}
	var out []Analyzer
	for _, name := range strings.Split(list, ",") {
		a, ok := known[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to every package, drops suppressed
// findings, and returns the rest sorted by position then rule.
// Program analyzers see all packages of the call at once, so a run
// over ./... is a whole-program analysis.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	var prog *Program
	for _, a := range analyzers {
		if _, ok := a.(ProgramAnalyzer); ok && len(pkgs) > 0 {
			prog = BuildProgram(pkgs)
			break
		}
	}
	sup := collectSuppressions(pkgs)
	var out []Finding
	keep := func(fs []Finding) {
		for _, f := range fs {
			if !sup.covers(f) {
				out = append(out, f)
			}
		}
	}
	for _, a := range analyzers {
		if pa, ok := a.(ProgramAnalyzer); ok {
			if prog != nil {
				keep(pa.RunProgram(prog))
			}
			continue
		}
		for _, p := range pkgs {
			keep(a.Run(p))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// ignoreDirective is the comment prefix that silences a finding.
const ignoreDirective = "nocvet:ignore"

// suppressions maps file → line → set of silenced rules.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) covers(f Finding) bool {
	return s[f.Pos.Filename][f.Pos.Line][f.Rule]
}

// collectSuppressions scans every comment for ignore directives. A
// directive names one or more rules (comma-separated) and silences
// them on its own line and on the line below, so both trailing and
// standalone-above placements work:
//
//	cycle := 0 //nocvet:ignore cyclewidth bounded by construction
//
//	//nocvet:ignore detrand jitter is cosmetic, not simulated state
//	d := time.Now()
func collectSuppressions(pkgs []*Package) suppressions {
	sup := suppressions{}
	for _, p := range pkgs {
		sup.collect(p)
	}
	return sup
}

func (sup suppressions) collect(p *Package) {
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup[pos.Filename] = byLine
				}
				for _, rule := range strings.Split(fields[0], ",") {
					rule = strings.TrimSpace(rule)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if byLine[line] == nil {
							byLine[line] = map[string]bool{}
						}
						byLine[line][rule] = true
					}
				}
			}
		}
	}
}

// finding builds a Finding at a node's position.
func (p *Package) finding(rule string, node ast.Node, format string, args ...any) Finding {
	return Finding{
		Pos:  p.Fset.Position(node.Pos()),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	}
}
