// Package lint is nocvet's analysis engine: a stdlib-only static
// checker (go/parser + go/types, no x/tools) that enforces the
// simulator's determinism and invariant conventions. The whole value of
// the reproduction is that a given seed yields a bit-identical
// cycle-accurate run; these analyzers keep contributions honest about
// the properties the tests assume:
//
//	cyclewidth — cycle counters stay int64; no narrowing conversions
//	             of cycle-derived values
//	panicstyle — panic messages carry the "<pkg>: " prefix so
//	             invariant violations are attributable
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
//	dettaint   — determinism: no wall-clock read or global math/rand
//	             call under internal/, no package time at all in
//	             internal/{faults,invariant,snapshot,telemetry}, no map
//	             range whose body sends, appends unsorted or calls a
//	             simulator method; and values derived from map order,
//	             select, wall clock, or pointer identity must be
//	             laundered (sorted) before they reach simulator state
//	hotalloc2  — no allocation idiom (make, new, &T{}, append-prepend,
//	             capturing closures, ...any boxing) anywhere reachable
//	             from //nocvet:hot roots, phase roots, and controller
//	             PreCycle/PostCycle — across packages; the steady-state
//	             zero-allocs-per-cycle contract depends on it
//
// Findings can be silenced with a `//nocvet:ignore <rule> <reason>`
// comment on the offending line or the line directly above it. The
// reason is mandatory by convention: a suppression is a claim that the
// flagged code is deterministic anyway, and the claim should be stated.
// A directive that names no analyzer, or names one that ran and
// silenced nothing, is itself a finding (rule "ignore").
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
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
		CycleWidth{}, PanicStyle{}, PhaseSafe{}, DetTaint{}, HotAlloc2{},
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

// ByName resolves a comma-separated rule list ("dettaint,panicstyle").
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
// findings, adds the stale suppressions, and returns the rest sorted by
// position then rule. Program analyzers see all packages of the call at
// once, so a run over ./... is a whole-program analysis.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	var prog *Program
	for _, a := range analyzers {
		if _, ok := a.(ProgramAnalyzer); ok && len(pkgs) > 0 {
			prog = BuildProgram(pkgs)
			break
		}
	}
	sup := collectSuppressions(pkgs)
	ran := map[string]bool{}
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
				// A run with no hot or phase root sees too little of the
				// call graph to call a whole-program suppression stale.
				ran[a.Name()] = len(prog.HotRoots()) > 0
			}
			continue
		}
		for _, p := range pkgs {
			keep(a.Run(p))
		}
		ran[a.Name()] = true
	}
	out = append(out, sup.stale(ran)...)
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Rule, b.Rule), strings.Compare(a.Msg, b.Msg))
	})
	return out
}

// ignoreDirective is the comment prefix that silences a finding.
const ignoreDirective = "nocvet:ignore"

// directive is one rule named by an ignore directive.
type directive struct {
	pos  token.Position
	rule string
	used bool // it silenced at least one finding
}

// suppressions holds every directive of a run, indexed by file and by
// each line it covers.
type suppressions struct {
	all    []*directive
	byLine map[string]map[int][]*directive
}

// covers reports whether a directive silences f, and marks it used.
func (s *suppressions) covers(f Finding) bool {
	hit := false
	for _, d := range s.byLine[f.Pos.Filename][f.Pos.Line] {
		if d.rule == f.Rule {
			d.used, hit = true, true
		}
	}
	return hit
}

// stale reports each directive that names no analyzer, or names one
// that ran and silenced nothing: left alone, either would keep looking
// like a reviewed claim about code that no rule checks any more.
func (s *suppressions) stale(ran map[string]bool) []Finding {
	names := Names()
	var out []Finding
	for _, d := range s.all {
		msg := ""
		switch {
		case !slices.Contains(names, d.rule):
			msg = fmt.Sprintf("//nocvet:ignore names unknown rule %q (known: %s)", d.rule, strings.Join(names, ", "))
		case ran[d.rule] && !d.used:
			msg = fmt.Sprintf("//nocvet:ignore %s silences nothing on this line or the next; delete it", d.rule)
		default:
			continue
		}
		out = append(out, Finding{Pos: d.pos, Rule: "ignore", Msg: msg})
	}
	return out
}

// collectSuppressions scans every comment for ignore directives. A
// directive names one or more rules (comma-separated) and silences
// them on its own line and on the line below, so both trailing and
// standalone-above placements work:
//
//	cycle := 0 //nocvet:ignore cyclewidth bounded by construction
//
//	//nocvet:ignore dettaint jitter is cosmetic, not simulated state
//	d := time.Now()
func collectSuppressions(pkgs []*Package) *suppressions {
	s := &suppressions{byLine: map[string]map[int][]*directive{}}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, ignoreDirective)
					fields := strings.Fields(rest)
					if !ok || len(fields) == 0 {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					byLine := s.byLine[pos.Filename]
					if byLine == nil {
						byLine = map[int][]*directive{}
						s.byLine[pos.Filename] = byLine
					}
					for _, rule := range strings.Split(fields[0], ",") {
						d := &directive{pos: pos, rule: strings.TrimSpace(rule)}
						s.all = append(s.all, d)
						byLine[pos.Line] = append(byLine[pos.Line], d)
						byLine[pos.Line+1] = append(byLine[pos.Line+1], d)
					}
				}
			}
		}
	}
	return s
}

// finding builds a Finding at a node's position.
func (p *Package) finding(rule string, node ast.Node, format string, args ...any) Finding {
	return Finding{
		Pos:  p.Fset.Position(node.Pos()),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	}
}
