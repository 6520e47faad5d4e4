package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CycleWidth keeps cycle counters 64-bit. A production-scale run is
// billions of cycles; an `int` is only guaranteed 32 bits by the spec,
// and a narrowing conversion of an unbounded cycle value silently
// wraps. Two shapes are flagged on cycle-named values (any identifier
// whose name contains "cycle", any call like Cycle()):
//
//   - declarations (vars, fields, params, results) typed `int`/`int32`
//     etc. instead of `int64`,
//   - conversions of an int64 cycle expression down to a narrower or
//     implementation-sized integer type.
//
// A conversion whose operand is a modulo expression (`int(cycle % k)`)
// is accepted: the mod bounds the value, which is the sanctioned way to
// derive a small index from a cycle count.
type CycleWidth struct{}

func (CycleWidth) Name() string { return "cyclewidth" }
func (CycleWidth) Doc() string {
	return "flag narrow integer declarations and narrowing conversions of cycle counters"
}

func (CycleWidth) Run(prog *Program) []Finding {
	var out []Finding
	for _, p := range prog.Pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if f, ok := narrowingCycleConversion(p, n); ok {
						out = append(out, f)
					}
				case *ast.Field:
					out = append(out, narrowCycleNames(p, n.Names, n.Type)...)
				case *ast.ValueSpec:
					out = append(out, narrowCycleNames(p, n.Names, n.Type)...)
				case *ast.AssignStmt:
					out = append(out, narrowCycleDefines(p, n)...)
				}
				return true
			})
		}
	}
	return out
}

// isCycleName reports whether an identifier names a cycle quantity.
func isCycleName(name string) bool {
	return strings.Contains(strings.ToLower(name), "cycle")
}

// mentionsCycle reports whether the expression references any
// cycle-named identifier, selector, or call.
func mentionsCycle(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && isCycleName(id.Name) {
			found = true
		}
		return !found
	})
	return found
}

// isNarrowInt reports whether t is an integer type that cannot be
// trusted to hold an int64 cycle count.
func isNarrowInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Int8, types.Int16, types.Int32,
		types.Uint, types.Uint8, types.Uint16, types.Uint32, types.Uintptr:
		return true
	}
	return false
}

// isInt64 reports whether t is exactly a 64-bit integer.
func isInt64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Int64 || b.Kind() == types.Uint64)
}

// narrowingCycleConversion flags `int(cycleExpr)` and friends.
func narrowingCycleConversion(p *Package, call *ast.CallExpr) (Finding, bool) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return Finding{}, false
	}
	target := tv.Type
	if !isNarrowInt(target) {
		return Finding{}, false
	}
	arg := ast.Unparen(call.Args[0])
	argType := p.Info.Types[call.Args[0]].Type
	if argType == nil || !isInt64(argType) || !mentionsCycle(arg) {
		return Finding{}, false
	}
	// `int(x % k)` is bounded by k and accepted.
	if bin, ok := arg.(*ast.BinaryExpr); ok && bin.Op.String() == "%" {
		return Finding{}, false
	}
	return p.finding("cyclewidth", call,
		"narrowing conversion of cycle value to %s; keep cycle arithmetic in int64 (or bound it with %% before converting)",
		target.String()), true
}

// narrowCycleNames flags cycle-named declarations with narrow explicit
// types (struct fields, params, results, var/const specs).
func narrowCycleNames(p *Package, names []*ast.Ident, typ ast.Expr) []Finding {
	if typ == nil {
		return nil
	}
	tv, ok := p.Info.Types[typ]
	if !ok || !isNarrowInt(tv.Type) {
		return nil
	}
	var out []Finding
	for _, id := range names {
		if isCycleName(id.Name) {
			out = append(out, p.finding("cyclewidth", id,
				"cycle counter %q declared as %s; cycle counters are int64 by convention", id.Name, tv.Type.String()))
		}
	}
	return out
}

// narrowCycleDefines flags `cycle := <int expr>` short declarations.
func narrowCycleDefines(p *Package, as *ast.AssignStmt) []Finding {
	if as.Tok.String() != ":=" {
		return nil
	}
	var out []Finding
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || !isCycleName(id.Name) {
			continue
		}
		obj := p.Info.Defs[id]
		if obj == nil || !isNarrowInt(obj.Type()) {
			continue
		}
		out = append(out, p.finding("cyclewidth", id,
			"cycle counter %q inferred as %s; declare it int64 (e.g. `var %s int64`)", id.Name, obj.Type().String(), id.Name))
	}
	return out
}
