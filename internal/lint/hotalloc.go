package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc keeps the per-cycle simulation kernel off the allocator. The
// hot-path packages (internal/nic, internal/router, internal/network,
// internal/minbd) hold the steady-state zero-allocs-per-cycle contract
// (allocate at Build, never after — DESIGN.md §9), and two idioms
// quietly break it:
//
//   - the append-prepend copy, `append([]T{x}, q...)`, which allocates
//     a fresh backing array and copies the whole queue to put one
//     element in front — message.Queue's PushFront and ringq's
//     InsertAt(0, …) exist precisely so that is O(1);
//   - a `make` inside per-cycle code, which turns one forgotten scratch
//     slice into an allocation every simulated cycle.
//
// Construction is not per cycle, so functions named New*/new* and init
// may allocate freely; everything else in a hot-path package is assumed
// to run during simulation. A genuinely cold path (a drain epilogue, an
// error report) can state that with a `//nocvet:ignore hotalloc`
// suppression.
type HotAlloc struct{}

func (HotAlloc) Name() string { return "hotalloc" }
func (HotAlloc) Doc() string {
	return "forbid append-prepend copies and per-cycle make in hot-path packages"
}

// hotPathPackage reports whether a package is covered by the
// zero-allocs-per-cycle contract.
func hotPathPackage(path string) bool {
	switch {
	case strings.HasSuffix(path, "/internal/nic"),
		strings.HasSuffix(path, "/internal/router"),
		strings.HasSuffix(path, "/internal/network"),
		strings.HasSuffix(path, "/internal/minbd"):
		return true
	}
	// The analyzer's own fixture opts in so the golden test can exercise
	// the rule without touching the real hot path.
	return strings.HasSuffix(path, "/lint/testdata/src/hotalloc")
}

// setupFunc reports whether a function name marks one-time construction
// rather than per-cycle work.
func setupFunc(name string) bool {
	return name == "init" ||
		strings.HasPrefix(name, "New") ||
		strings.HasPrefix(name, "new")
}

func (HotAlloc) Run(p *Package) []Finding {
	if !hotPathPackage(p.Path) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			perCycle := !setupFunc(fn.Name.Name)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch builtinName(p, call.Fun) {
				case "append":
					if isPrependCopy(call) {
						out = append(out, p.finding("hotalloc", call,
							"append-prepend copies the whole queue to insert one element; use message.Queue.PushFront or ringq InsertAt(0, …) instead"))
					}
				case "make":
					if perCycle {
						out = append(out, p.finding("hotalloc", call,
							"make in per-cycle code of a hot-path package allocates every cycle; hoist the buffer into the struct and reuse it (reset with s[:0])"))
					}
				}
				return true
			})
		}
	}
	return out
}

// builtinName returns the name of the builtin a call expression invokes,
// or "" if it is not a builtin call. Shadowed identifiers (a local
// function named make) resolve to non-builtin objects and are skipped.
func builtinName(p *Package, fun ast.Expr) string {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := p.Info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// isPrependCopy matches `append([]T{x, ...}, q...)`: a variadic append
// whose first argument is a non-empty composite literal. The legal tail
// append and `append(dst[:0], src...)` reuse shapes do not match.
func isPrependCopy(call *ast.CallExpr) bool {
	if !call.Ellipsis.IsValid() || len(call.Args) != 2 {
		return false
	}
	lit, ok := call.Args[0].(*ast.CompositeLit)
	return ok && len(lit.Elts) > 0
}
