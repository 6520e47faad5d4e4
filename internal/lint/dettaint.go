package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DetTaint is nocvet's one determinism analyzer. It flags a hidden
// input both where it enters and, interprocedurally, where it lands: a
// helper that builds a slice in map iteration order and returns it
// through two more helpers is still a nondeterministic value, and
// writing it into simulator state breaks the bit-identical-replay
// contract just as surely as ranging the map at the sink would.
//
// Sources of taint:
//
//   - the key/value variables of a `range` over a map (their binding
//     order is randomized on purpose);
//   - values assigned inside a `select` with two or more cases (the
//     runtime picks a ready case pseudo-randomly);
//   - the global math/rand functions (process-shared generator state);
//   - time.Now/Since/Until (host clock);
//   - converting a pointer to uintptr or unsafe.Pointer (allocator
//     addresses vary run to run — pointer identity used as data).
//
// Taint propagates through assignments, expressions, and — via
// per-function return summaries iterated to a fixpoint over the
// whole-program call graph — through calls, across package boundaries.
// Sorting launders order taint: passing the value to package sort or
// slices erases it (the collect-then-sort idiom).
//
// Sinks, where findings are reported:
//
//   - a clock read or global-rand call itself, anywhere under internal/
//     (simulation time comes from the cycle counter, randomness from an
//     explicitly seeded *rand.Rand), and on the hot path in any package;
//   - any reference to package time at all in the clockFree packages;
//   - a map range, in any package, whose body sends into a channel,
//     appends to a slice declared outside the loop that is not sorted
//     afterwards, or calls a method of a module type;
//   - a tainted value assigned into a field of a module-declared
//     struct inside an internal/ package (simulator state);
//   - a call to a taint-returning function inside the per-cycle hot
//     path (anything reachable from Network.Step or a controller scan —
//     see HotRoots).
type DetTaint struct{}

func (DetTaint) Name() string { return "dettaint" }
func (DetTaint) Doc() string {
	return "flag host clock, global rand and map order where they enter and where they reach simulator state"
}

// forbiddenTime is the wall-clock surface of package time. Durations,
// constants, and formatting stay legal outside the clockFree packages —
// only host-clock reads break reproducibility.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// forbiddenRand is every top-level math/rand function that touches the
// package-global generator. The constructors (New, NewSource, NewZipf)
// are the sanctioned alternative and stay legal.
var forbiddenRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "N": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
}

// clockFree lists, by path suffix, the packages where any reference to
// package time is a finding, not only a clock read: fault schedules,
// watchdog bounds, checkpoints and telemetry windows are simulated
// cycles, so even a time.Duration is a wall-clock-shaped knob, and a
// wedged run must trip at the same cycle on every machine. The last
// entry is the lint fixture.
var clockFree = []string{
	"/internal/faults", "/internal/invariant", "/internal/snapshot", "/internal/telemetry",
	"/testdata/src/dettaint/noclock",
}

func isClockFree(path string) bool {
	return slices.ContainsFunc(clockFree, func(suffix string) bool { return strings.HasSuffix(path, suffix) })
}

// Run implements Analyzer; dettaint is whole-program only.
func (DetTaint) Run(*Package) []Finding { return nil }

func (DetTaint) RunProgram(prog *Program) []Finding {
	t := &taintAnalysis{prog: prog, summaries: map[*FuncNode]string{}}
	// Fixpoint over return summaries: each round re-derives every
	// function's summary with the previous round's view of its callees.
	// Monotone (summaries only gain taint), so it terminates.
	for round := 0; round <= len(prog.Funcs); round++ {
		changed := false
		for _, n := range prog.Funcs {
			if n.Decl.Body == nil {
				continue
			}
			reason := t.analyze(n, nil)
			if reason != "" && t.summaries[n] == "" {
				t.summaries[n] = reason
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	hot := prog.Reachable(prog.HotRoots(), nil)
	var findings []Finding
	for _, n := range prog.Funcs {
		if n.Decl.Body == nil {
			continue
		}
		sink := &sinkContext{node: n, hot: hot[n]}
		t.analyze(n, sink)
		findings = append(findings, sink.findings...)
	}
	for _, p := range prog.Pkgs {
		if isClockFree(p.Path) {
			findings = append(findings, timeRefs(p)...)
		}
	}
	return findings
}

// taintAnalysis carries the program-wide state of the fixpoint.
type taintAnalysis struct {
	prog      *Program
	summaries map[*FuncNode]string // func → why its return value is tainted ("" = clean)
}

// sinkContext switches analyze into reporting mode for one function.
type sinkContext struct {
	node     *FuncNode
	hot      bool
	findings []Finding
}

func (s *sinkContext) report(p *Package, node ast.Node, format string, args ...any) {
	s.findings = append(s.findings, p.finding("dettaint", node, format, args...))
}

// analyze walks one function body, tracking tainted objects in source
// order, and returns the reason the function's return value is tainted
// ("" when clean). With a non-nil sink it additionally reports sink
// findings.
func (t *taintAnalysis) analyze(n *FuncNode, sink *sinkContext) string {
	p := n.Pkg
	body := n.Decl.Body
	tainted := map[types.Object]string{}
	retReason := ""

	// Pre-passes: spans of select statements with ≥2 cases (anything
	// assigned inside depends on arm choice), and the positions at
	// which expressions are laundered by a sort call (for the
	// written-then-sorted sink filter).
	var selectSpans [][2]token.Pos
	launders := map[string][]token.Pos{} // ExprString → sort-call positions
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.SelectStmt:
			if len(nd.Body.List) >= 2 {
				selectSpans = append(selectSpans, [2]token.Pos{nd.Pos(), nd.End()})
			}
		case *ast.CallExpr:
			if sorts(calledFunc(p, nd)) {
				for _, arg := range nd.Args {
					key := types.ExprString(ast.Unparen(arg))
					launders[key] = append(launders[key], nd.Pos())
				}
			}
		}
		return true
	})
	inSelect := func(pos token.Pos) bool {
		for _, s := range selectSpans {
			if pos >= s[0] && pos < s[1] {
				return true
			}
		}
		return false
	}
	launderedAfter := func(e ast.Expr, pos token.Pos) bool {
		for _, lp := range launders[types.ExprString(ast.Unparen(e))] {
			if lp > pos {
				return true
			}
		}
		return false
	}

	// taintOf explains why an expression is tainted, or returns "".
	var taintOf func(e ast.Expr) string
	taintOf = func(e ast.Expr) string {
		switch e := e.(type) {
		case nil:
			return ""
		case *ast.Ident:
			if obj := p.Info.Uses[e]; obj != nil {
				return tainted[obj]
			}
			return ""
		case *ast.ParenExpr:
			return taintOf(e.X)
		case *ast.StarExpr:
			return taintOf(e.X)
		case *ast.UnaryExpr:
			return taintOf(e.X)
		case *ast.BinaryExpr:
			if r := taintOf(e.X); r != "" {
				return r
			}
			return taintOf(e.Y)
		case *ast.IndexExpr:
			if r := taintOf(e.X); r != "" {
				return r
			}
			return taintOf(e.Index)
		case *ast.SliceExpr:
			return taintOf(e.X)
		case *ast.SelectorExpr:
			return taintOf(e.X)
		case *ast.TypeAssertExpr:
			return taintOf(e.X)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if r := taintOf(elt); r != "" {
					return r
				}
			}
			return ""
		case *ast.CallExpr:
			return t.taintOfCall(p, e, taintOf)
		}
		return ""
	}

	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.RangeStmt:
			tv := p.Info.Types[nd.X]
			if tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			for _, v := range []ast.Expr{nd.Key, nd.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
					if obj := p.Info.Defs[id]; obj != nil {
						tainted[obj] = "map iteration order"
					} else if obj := p.Info.Uses[id]; obj != nil {
						tainted[obj] = "map iteration order"
					}
				}
			}
			if sink != nil {
				if why := orderSensitiveBody(p, nd, launderedAfter); why != "" {
					sink.report(p, nd, "map iteration order is nondeterministic and the body %s; range over sorted keys instead", why)
				}
			}
		case *ast.AssignStmt:
			t.flowAssign(p, nd, tainted, taintOf, inSelect)
			if sink != nil {
				t.reportFieldSinks(p, nd, sink, taintOf, launderedAfter)
			}
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				if r := taintOf(res); r != "" && retReason == "" {
					retReason = r
				}
			}
		case *ast.CallExpr:
			fn := calledFunc(p, nd)
			// Laundering: the sort call clears object-level taint from
			// this point on (walk order approximates source order).
			if sorts(fn) {
				for _, arg := range nd.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil {
							delete(tainted, obj)
						}
					}
				}
				return true
			}
			if sink != nil && fn != nil {
				t.reportCall(p, nd, fn, sink)
			}
		}
		return true
	})
	return retReason
}

// flowAssign propagates taint through one assignment.
func (t *taintAnalysis) flowAssign(p *Package, as *ast.AssignStmt, tainted map[types.Object]string,
	taintOf func(ast.Expr) string, inSelect func(token.Pos) bool) {
	reasons := make([]string, len(as.Lhs))
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			reasons[i] = taintOf(rhs)
		}
	} else if len(as.Rhs) == 1 {
		// Multi-value call or comma-ok: one reason for every target.
		r := taintOf(as.Rhs[0])
		for i := range reasons {
			reasons[i] = r
		}
	}
	sel := inSelect(as.Pos())
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		switch {
		case sel:
			tainted[obj] = "select arm choice"
		case reasons[i] != "":
			// Commutative self-accumulation (x += v, x = x + v over
			// numbers) does not inherit order taint: the sum is the
			// same whatever the iteration order.
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE && isNumeric(p, lhs) {
				continue
			}
			tainted[obj] = reasons[i]
		case as.Tok == token.ASSIGN:
			delete(tainted, obj) // strong update with a clean value
		}
	}
}

// isNumeric reports whether the expression has a basic numeric type.
func isNumeric(p *Package, e ast.Expr) bool {
	tv := p.Info.Types[e]
	if tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// calledFunc resolves a call expression to the function object it
// invokes, through plain idents (dot imports) and selectors alike.
func calledFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// sorts reports whether fn belongs to package sort or slices, whose
// output order is deterministic whatever the input order.
func sorts(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices")
}

// hostInput returns the taint reason of a call to a package-level
// function that reads hidden host state — a clock read of package time
// or math/rand's process-global generator — or "". Methods (on a seeded
// *rand.Rand, on a time.Time) are not host inputs.
func hostInput(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if forbiddenRand[fn.Name()] {
			return "global math/rand state (rand." + fn.Name() + ")"
		}
	case "time":
		if forbiddenTime[fn.Name()] {
			return "wall-clock read (time." + fn.Name() + ")"
		}
	}
	return ""
}

// taintOfCall classifies a call expression: a taint source, a call to
// a taint-returning function, a launderer, or a pass-through of its
// arguments' taint.
func (t *taintAnalysis) taintOfCall(p *Package, call *ast.CallExpr, taintOf func(ast.Expr) string) string {
	// Conversions: pointer identity escaping into an integer.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := p.Info.Types[call.Args[0]].Type
		if b, ok := dst.(*types.Basic); ok && (b.Kind() == types.Uintptr || b.Kind() == types.UnsafePointer) {
			if src != nil {
				if _, isPtr := src.Underlying().(*types.Pointer); isPtr {
					return "pointer identity (uintptr conversion)"
				}
				if b2, ok := src.Underlying().(*types.Basic); ok && b2.Kind() == types.UnsafePointer {
					return "pointer identity (uintptr conversion)"
				}
			}
		}
		return taintOf(call.Args[0]) // other conversions pass taint through
	}
	if fn := calledFunc(p, call); fn != nil {
		if r := hostInput(fn); r != "" {
			return r
		}
		if sorts(fn) {
			return "" // launderers: deterministic output order
		}
		if node := t.prog.Node(fn); node != nil {
			if r := t.summaries[node]; r != "" {
				return r + " (via " + node.FullName() + ")"
			}
			// A module function with a clean summary still passes its
			// arguments' taint through conservatively below.
		}
	}
	if bn := builtinName(p, call.Fun); bn == "len" || bn == "cap" {
		return "" // a tainted collection has a deterministic size
	}
	for _, arg := range call.Args {
		if r := taintOf(arg); r != "" {
			return r
		}
	}
	// Method call on a tainted receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return taintOf(sel.X)
	}
	return ""
}

// reportFieldSinks flags assignments whose target is a module struct
// field and whose value is tainted — unless the field is sorted later
// in the same function (collect-then-sort through a field).
func (t *taintAnalysis) reportFieldSinks(p *Package, as *ast.AssignStmt, sink *sinkContext,
	taintOf func(ast.Expr) string, launderedAfter func(ast.Expr, token.Pos) bool) {
	if !p.internal() {
		return
	}
	for i, lhs := range as.Lhs {
		selExpr, ok := baseSelector(lhs)
		if !ok {
			continue
		}
		// Commutative numeric self-accumulation (field += v) is
		// order-independent, same as the ident case in flowAssign.
		if as.Tok != token.ASSIGN && isNumeric(p, lhs) {
			continue
		}
		s := p.Info.Selections[selExpr]
		if s == nil || s.Kind() != types.FieldVal {
			continue
		}
		fv, ok := s.Obj().(*types.Var)
		if !ok || t.prog.Field(fv) == nil {
			continue
		}
		var rhs ast.Expr
		if len(as.Lhs) == len(as.Rhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		reason := taintOf(rhs)
		if reason == "" {
			continue
		}
		if launderedAfter(lhs, as.Pos()) {
			continue
		}
		sink.report(p, as,
			"%s flows into simulator state %s; derive the value deterministically (seeded rand, sorted keys, cycle time)",
			reason, t.prog.FieldKey(fv))
	}
}

// reportCall flags a host-input call where it is made — under
// internal/, or on the per-cycle hot path in any package — and, on the
// hot path, a call to a helper whose return is tainted. Package time in
// a clockFree package is left to timeRefs, so one call is reported once.
func (t *taintAnalysis) reportCall(p *Package, call *ast.CallExpr, fn *types.Func, sink *sinkContext) {
	if r := hostInput(fn); r != "" {
		switch {
		case fn.Pkg().Path() == "time" && isClockFree(p.Path):
		case sink.hot:
			sink.report(p, call, "%s inside the per-cycle hot path (%s is reachable from Step)", r, sink.node.FullName())
		case p.internal():
			sink.report(p, call, "%s in simulation code; take time from the cycle counter and randomness from an explicitly seeded *rand.Rand", r)
		}
		return
	}
	if node := t.prog.Node(fn); node != nil && sink.hot {
		if r := t.summaries[node]; r != "" {
			sink.report(p, call, "call to %s returns a nondeterministic value (%s) inside the per-cycle hot path",
				node.FullName(), r)
		}
	}
}

// orderSensitiveBody explains why a map range's body leaks iteration
// order, or returns "" for an order-insensitive body (a commutative
// reduction, or a collect-then-sort whose target is laundered after the
// loop).
func orderSensitiveBody(p *Package, rng *ast.RangeStmt, launderedAfter func(ast.Expr, token.Pos) bool) string {
	why := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			why = "sends into a channel"
		case *ast.AssignStmt:
			if id := appendTarget(n); id != nil && declaredOutside(p, id, rng) && !launderedAfter(id, rng.End()) {
				why = "appends to a slice declared outside the loop"
			}
		case *ast.CallExpr:
			if name := moduleMethodCall(p, n); name != "" {
				why = "calls simulator method " + name
			}
		}
		return true
	})
	return why
}

// appendTarget returns x of an `x = append(x, …)` statement, or nil.
func appendTarget(as *ast.AssignStmt) *ast.Ident {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, _ := as.Lhs[0].(*ast.Ident)
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if id == nil || !ok {
		return nil
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return nil
	}
	return id
}

// declaredOutside reports whether id's declaration lies outside the
// range statement (a := inside the loop declares a fresh variable).
func declaredOutside(p *Package, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := p.Info.Uses[id]
	return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End())
}

// moduleMethodCall returns "Type.Method" when the call invokes a method
// whose receiver type is declared inside this module.
func moduleMethodCall(p *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || !p.inModule(s.Obj().Pkg()) {
		return ""
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return named.Obj().Name() + "." + s.Obj().Name()
	}
	return recv.String() + "." + s.Obj().Name()
}

// timeRefs reports every import of, and reference to, package time in
// a clockFree package.
func timeRefs(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if strings.Trim(n.Path.Value, `"`) == "time" {
					out = append(out, p.finding("dettaint", n,
						"import of package time in a cycle-driven package: fault schedules, watchdog bounds, checkpoints and telemetry windows are simulated cycles"))
				}
			case *ast.Ident:
				// A package qualifier's object belongs to the importing
				// package, so only the selected members match here.
				if obj := p.Info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
					out = append(out, p.finding("dettaint", n,
						"reference to time.%s in a cycle-driven package; time comes from the cycle counter, never the host clock", obj.Name()))
				}
			}
			return true
		})
	}
	return out
}
