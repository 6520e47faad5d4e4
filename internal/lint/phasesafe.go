package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// PhaseSafe is the shard-safety analyzer. The cycle engine's phase
// methods carry //nocvet:phase annotations (route, alloc, traverse,
// commit — the paper's compute-then-commit discipline); PhaseSafe
// computes the transitive field read/write set of each phase over the
// whole-program call graph, then checks the fields of //nocvet:shared
// structs — the state a future sharded engine cannot keep shard-local:
//
//   - a shared field both written and read inside one phase is a
//     same-phase hazard: two shards executing that phase concurrently
//     race on it;
//   - a shared field written by two different phases without a
//     //nocvet:buffered mark has no single owning phase, so the
//     sharded engine cannot hand it to one barrier interval.
//
// Fields of unmarked structs (routers, NICs, VCs — indexed per node)
// are shard-local by construction and are reported in the phase
// contract but never flagged. The full read/write contract is emitted
// by `nocvet -phasereport` (see BuildPhaseReport); the sharded engine
// of the ROADMAP is to be checked against that JSON.
type PhaseSafe struct{}

func (PhaseSafe) Name() string { return "phasesafe" }
func (PhaseSafe) Doc() string {
	return "check //nocvet:phase read/write sets of shared state for shard hazards"
}

// Run implements Analyzer; phasesafe is whole-program only.
func (PhaseSafe) Run(*Package) []Finding { return nil }

// phaseAccess is the per-phase transitive access relation.
type phaseAccess struct {
	reads  map[*types.Var]bool
	writes map[*types.Var]bool
}

// phaseClosures resolves annotation roots and computes each phase's
// function closure and field accesses. Bad annotations become findings.
func phaseClosures(prog *Program) (map[string][]*FuncNode, map[string]map[*FuncNode]bool, map[string]*phaseAccess, []Finding) {
	var findings []Finding
	known := map[string]bool{}
	for _, name := range PhaseNames {
		known[name] = true
	}
	roots := map[string][]*FuncNode{}
	for _, n := range prog.Funcs {
		if n.Phase == "" {
			continue
		}
		if !known[n.Phase] {
			findings = append(findings, n.Pkg.finding("phasesafe", n.Decl.Name,
				"unknown phase %q in //nocvet:phase (want %s)", n.Phase, strings.Join(PhaseNames, "|")))
			continue
		}
		roots[n.Phase] = append(roots[n.Phase], n)
	}
	closures := map[string]map[*FuncNode]bool{}
	accesses := map[string]*phaseAccess{}
	for _, phase := range PhaseNames {
		if len(roots[phase]) == 0 {
			continue
		}
		phase := phase
		closure := prog.Reachable(roots[phase], func(n *FuncNode) bool {
			return n.Phase != "" && n.Phase != phase
		})
		closures[phase] = closure
		acc := &phaseAccess{reads: map[*types.Var]bool{}, writes: map[*types.Var]bool{}}
		for n := range closure {
			if n.Decl.Body == nil {
				continue
			}
			collectFieldAccesses(n.Pkg, prog, n.Decl.Body, func(a fieldAccess) {
				if a.write {
					acc.writes[a.field] = true
				} else {
					acc.reads[a.field] = true
				}
			})
		}
		accesses[phase] = acc
	}
	return roots, closures, accesses, findings
}

func (PhaseSafe) RunProgram(prog *Program) []Finding {
	_, _, accesses, findings := phaseClosures(prog)
	if len(accesses) == 0 {
		return findings
	}
	// Gather the shared fields touched by any phase.
	type sharedState struct {
		field     *types.Var
		readIn    []string
		writtenIn []string
	}
	byField := map[*types.Var]*sharedState{}
	var order []*types.Var
	touch := func(fv *types.Var) *sharedState {
		fi := prog.Field(fv)
		if fi == nil || !fi.Shared || fi.Buffered {
			return nil
		}
		s := byField[fv]
		if s == nil {
			s = &sharedState{field: fv}
			byField[fv] = s
			order = append(order, fv)
		}
		return s
	}
	for _, phase := range PhaseNames {
		acc := accesses[phase]
		if acc == nil {
			continue
		}
		for fv := range acc.reads {
			if s := touch(fv); s != nil {
				s.readIn = append(s.readIn, phase)
			}
		}
		for fv := range acc.writes {
			if s := touch(fv); s != nil {
				s.writtenIn = append(s.writtenIn, phase)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return prog.FieldKey(order[i]) < prog.FieldKey(order[j])
	})
	for _, fv := range order {
		s := byField[fv]
		fi := prog.Field(fv)
		pos := prog.Fset.Position(fi.Pos)
		key := prog.FieldKey(fv)
		// Same-phase write-then-read: any phase appearing on both sides.
		var both []string
		for _, phase := range s.writtenIn {
			if slices.Contains(s.readIn, phase) {
				both = append(both, phase)
			}
		}
		if len(both) > 0 {
			findings = append(findings, Finding{Pos: pos, Rule: "phasesafe", Msg: fmt.Sprintf(
				"shared field %s is written and read inside phase %s; concurrent shards race on it — double-buffer it or hoist one side out of the phase",
				key, strings.Join(both, ","))})
		}
		if len(s.writtenIn) > 1 {
			findings = append(findings, Finding{Pos: pos, Rule: "phasesafe", Msg: fmt.Sprintf(
				"shared field %s is written by phases %s without a //nocvet:buffered double-buffer; no single phase owns it",
				key, strings.Join(s.writtenIn, ","))})
		}
	}
	return findings
}

// sortedFuncs flattens a closure set into a slice ordered by full name,
// so consumers iterate it deterministically.
func sortedFuncs(set map[*FuncNode]bool) []*FuncNode {
	out := make([]*FuncNode, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// sortedFieldVars flattens a field-access set into a slice ordered by
// field key, so consumers iterate it deterministically.
func sortedFieldVars(prog *Program, set map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(set))
	for fv := range set {
		out = append(out, fv)
	}
	sort.Slice(out, func(i, j int) bool { return prog.FieldKey(out[i]) < prog.FieldKey(out[j]) })
	return out
}

// --- shard-safety contract report ---

// PhaseReport is the machine-readable shard-safety contract emitted by
// `nocvet -phasereport`: for every cycle-engine phase, the functions it
// owns and the module struct fields it transitively reads and writes.
// The future sharded Step implementation is validated against this
// document — a phase assignment that contradicts it is a regression,
// not a design choice.
type PhaseReport struct {
	Module string             `json:"module"`
	Phases []PhaseEntry       `json:"phases"`
	Shared []SharedFieldEntry `json:"shared"`
}

// PhaseEntry is one phase's closure and access sets.
type PhaseEntry struct {
	Name   string   `json:"name"`
	Roots  []string `json:"roots"`
	Funcs  []string `json:"funcs"`
	Reads  []string `json:"reads"`
	Writes []string `json:"writes"`
}

// SharedFieldEntry summarizes one //nocvet:shared struct field.
type SharedFieldEntry struct {
	Field     string   `json:"field"`
	Buffered  bool     `json:"buffered"`
	ReadBy    []string `json:"readBy"`
	WrittenBy []string `json:"writtenBy"`
}

// BuildPhaseReport computes the contract from a loaded program. The
// output is deterministic: same packages in, same bytes out.
func BuildPhaseReport(prog *Program) *PhaseReport {
	roots, closures, accesses, _ := phaseClosures(prog)
	rep := &PhaseReport{Module: prog.ModPath}
	sharedSeen := map[*types.Var]*SharedFieldEntry{}
	var sharedOrder []*types.Var
	for _, phase := range PhaseNames {
		if len(roots[phase]) == 0 {
			continue
		}
		entry := PhaseEntry{Name: phase}
		for _, r := range roots[phase] {
			entry.Roots = append(entry.Roots, r.FullName())
		}
		sort.Strings(entry.Roots)
		for _, n := range sortedFuncs(closures[phase]) {
			entry.Funcs = append(entry.Funcs, n.FullName())
		}
		acc := accesses[phase]
		shared := func(fv *types.Var) *SharedFieldEntry {
			fi := prog.Field(fv)
			if fi == nil || !fi.Shared {
				return nil
			}
			e := sharedSeen[fv]
			if e == nil {
				e = &SharedFieldEntry{Field: prog.FieldKey(fv), Buffered: fi.Buffered}
				sharedSeen[fv] = e
				sharedOrder = append(sharedOrder, fv)
			}
			return e
		}
		for _, fv := range sortedFieldVars(prog, acc.reads) {
			entry.Reads = append(entry.Reads, prog.FieldKey(fv))
			if e := shared(fv); e != nil && !slices.Contains(e.ReadBy, phase) {
				e.ReadBy = append(e.ReadBy, phase)
			}
		}
		for _, fv := range sortedFieldVars(prog, acc.writes) {
			entry.Writes = append(entry.Writes, prog.FieldKey(fv))
			if e := shared(fv); e != nil && !slices.Contains(e.WrittenBy, phase) {
				e.WrittenBy = append(e.WrittenBy, phase)
			}
		}
		rep.Phases = append(rep.Phases, entry)
	}
	sort.Slice(sharedOrder, func(i, j int) bool {
		return prog.FieldKey(sharedOrder[i]) < prog.FieldKey(sharedOrder[j])
	})
	for _, fv := range sharedOrder {
		rep.Shared = append(rep.Shared, *sharedSeen[fv])
	}
	return rep
}

// Render renders the report as stable, indented JSON with a trailing
// newline (byte-identical across runs on the same tree).
func (r *PhaseReport) Render() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
