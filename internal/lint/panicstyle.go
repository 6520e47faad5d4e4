package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// PanicStyle enforces the repo's panic-string convention: every panic
// carries a message prefixed with the package name ("router: body flit
// interleaved…", "nic %d: ejection queue overflow"), so an invariant
// violation deep in a million-cycle run is attributable from the crash
// line alone. The argument must be statically checkable: a string
// constant, or a fmt.Sprintf/fmt.Errorf call whose format literal
// carries the prefix. A bare `panic(err)` is flagged even when the
// error happens to be prefixed — the analyzer (and the reader) can't
// see that without running the code.
type PanicStyle struct{}

func (PanicStyle) Name() string { return "panicstyle" }
func (PanicStyle) Doc() string {
	return `require panic messages to carry the "<pkg>: " prefix`
}

func (PanicStyle) Run(prog *Program) []Finding {
	var out []Finding
	for _, p := range prog.Pkgs {
		prefix := p.Types.Name()
		if i := strings.LastIndex(p.Path, "/"); prefix == "main" && i >= 0 {
			prefix = p.Path[i+1:] // command binaries attribute by their directory name
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if ok && isBuiltinPanic(p, call) && len(call.Args) == 1 {
					if f, bad := checkPanicArg(p, call, prefix); bad {
						out = append(out, f)
					}
				}
				return true
			})
		}
	}
	return out
}

// isBuiltinPanic reports whether the call is the predeclared panic.
func isBuiltinPanic(p *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// checkPanicArg validates the panic argument against the convention.
func checkPanicArg(p *Package, call *ast.CallExpr, prefix string) (Finding, bool) {
	arg := ast.Unparen(call.Args[0])

	// Constant string (literal or concatenation): check directly.
	if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		msg := constant.StringVal(tv.Value)
		if hasPkgPrefix(msg, prefix) {
			return Finding{}, false
		}
		return p.finding("panicstyle", call,
			"panic message %q must start with %q so the failing package is attributable", msg, prefix+": "), true
	}

	// fmt.Sprintf / fmt.Errorf with a checkable format literal.
	if inner, ok := arg.(*ast.CallExpr); ok {
		if fn := calledFunc(p, inner); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(fn.Name() == "Sprintf" || fn.Name() == "Errorf") && len(inner.Args) > 0 {
			if tv, ok := p.Info.Types[ast.Unparen(inner.Args[0])]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				format := constant.StringVal(tv.Value)
				if hasPkgPrefix(format, prefix) {
					return Finding{}, false
				}
				return p.finding("panicstyle", call,
					"panic format %q must start with %q so the failing package is attributable", format, prefix+": "), true
			}
		}
	}

	return p.finding("panicstyle", call,
		`panic argument is not a statically checkable "%s: …" string; wrap it in fmt.Sprintf with the package prefix`, prefix), true
}

// hasPkgPrefix accepts "pkg: message" and parameterised variants like
// "nic %d: message" where an instance id sits between name and colon.
func hasPkgPrefix(msg, prefix string) bool {
	return strings.HasPrefix(msg, prefix+": ") || strings.HasPrefix(msg, prefix+" ")
}
