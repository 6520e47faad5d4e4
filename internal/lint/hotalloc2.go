package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc2 is nocvet's one allocation analyzer: it keeps the per-cycle
// kernel off the allocator (allocate at Build, never after — DESIGN.md
// §9). It computes the actual per-cycle hot path — everything reachable
// over the whole-program call graph from Network.Step, from the
// controllers' PreCycle/PostCycle scans, and from any //nocvet:hot or
// //nocvet:phase root — and flags allocation idioms wherever that
// closure reaches, including helpers hiding in other packages:
//
//   - make / new / &T{…} composite-literal escapes (a fresh heap
//     object per cycle);
//   - append to a slice declared empty in the same function (the
//     backing array is garbage every cycle; scratch must live in the
//     struct and be reset with s[:0]);
//   - the append-prepend copy, `append([]T{x}, q...)`, which copies the
//     whole queue to put one element in front (message.Queue's
//     PushFront and ringq's InsertAt(0, …) do it in O(1));
//   - variable-capturing closures (each capture forces a heap
//     allocation when the literal escapes);
//   - arguments boxed into a variadic ...any parameter (fmt-style
//     calls allocate an interface box per argument).
//
// Arguments of panic calls are exempt: a panicking cycle is already
// dead, and the invariant panics deliberately format rich messages.
// A whole rare-event subtree (the FastPass healing re-derivation,
// which runs once per permanent link failure) declares itself with a
// //nocvet:cold directive on its entry function: the traversal stops
// there instead of flagging every allocation below it. Cold scoping
// applies to this analyzer only — dettaint and phasesafe still cover
// cold code, because rare code still mutates simulated state.
// Anything else that is provably cold (a drain epilogue, a gated debug
// branch) states its case with a //nocvet:ignore hotalloc2 suppression
// — backed, for the steady state, by the alloc-guard test.
type HotAlloc2 struct{}

func (HotAlloc2) Name() string { return "hotalloc2" }
func (HotAlloc2) Doc() string {
	return "flag allocation idioms anywhere reachable from the per-cycle hot path"
}

// Run implements Analyzer; hotalloc2 is whole-program only.
func (HotAlloc2) Run(*Package) []Finding { return nil }

func (HotAlloc2) RunProgram(prog *Program) []Finding {
	roots := prog.HotRoots()
	if len(roots) == 0 {
		return nil
	}
	hot := prog.Reachable(roots, func(n *FuncNode) bool { return n.Cold })
	var findings []Finding
	for _, n := range prog.Funcs {
		if !hot[n] || n.Decl.Body == nil {
			continue
		}
		findings = append(findings, hotAllocCheck(n, prog)...)
	}
	return findings
}

// hotAllocCheck scans one hot function for allocation idioms.
func hotAllocCheck(n *FuncNode, prog *Program) []Finding {
	p := n.Pkg
	var out []Finding
	emptyLocals := emptySliceLocals(p, n.Decl.Body)
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if bn := builtinName(p, node.Fun); bn != "" {
				switch bn {
				case "panic":
					return false // a panicking cycle is not a hot cycle
				case "make":
					out = append(out, p.finding("hotalloc2", node,
						"make on the per-cycle hot path (%s is reachable from Step); hoist the buffer into the struct and reuse it", n.FullName()))
				case "new":
					out = append(out, p.finding("hotalloc2", node,
						"new on the per-cycle hot path (%s); allocate once at construction and reuse", n.FullName()))
				case "append":
					if isPrependCopy(node) {
						out = append(out, p.finding("hotalloc2", node,
							"append-prepend copies the whole queue on the hot path; use message.Queue.PushFront or ringq InsertAt(0, …)"))
					} else if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "append" && len(node.Args) > 0 {
						if tid, ok := ast.Unparen(node.Args[0]).(*ast.Ident); ok {
							if obj := p.Info.Uses[tid]; obj != nil && emptyLocals[obj] {
								out = append(out, p.finding("hotalloc2", node,
									"append to a slice born empty this call allocates a backing array every cycle; keep the scratch in the struct and reset with s[:0]"))
							}
						}
					}
				}
				return true
			}
			out = append(out, boxedArgs(p, n, node)...)
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					out = append(out, p.finding("hotalloc2", node,
						"&composite literal on the hot path escapes to the heap (%s); reuse a struct-owned instance", n.FullName()))
				}
			}
		case *ast.FuncLit:
			if captured := capturesLocals(p, node); captured != "" {
				out = append(out, p.finding("hotalloc2", node,
					"closure capturing %q on the hot path allocates when it escapes (%s); pass state explicitly or prove it non-escaping",
					captured, n.FullName()))
			}
		}
		return true
	}
	ast.Inspect(n.Decl.Body, walk)
	return out
}

// emptySliceLocals finds local slice variables declared with no backing
// storage (`var x []T` or `x := []T(nil)`): appending to one inside
// per-cycle code guarantees a fresh allocation.
func emptySliceLocals(p *Package, body ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		decl, ok := node.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := p.Info.Defs[name]
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// boxedArgs flags call arguments boxed into a variadic ...any
// parameter of a non-module function (fmt-style formatting allocates
// an interface box per argument).
func boxedArgs(p *Package, n *FuncNode, call *ast.CallExpr) []Finding {
	fn := calledFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if p.inModule(fn.Pkg()) {
		return nil // module calls are analyzed on their own bodies
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() || sig.Params().Len() == 0 {
		return nil
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().(*types.Slice)
	if !ok {
		return nil
	}
	iface, ok := slice.Elem().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() != 0 {
		return nil
	}
	fixed := sig.Params().Len() - 1
	for i, arg := range call.Args {
		if i < fixed || call.Ellipsis.IsValid() {
			continue
		}
		at := p.Info.Types[arg].Type
		if at == nil {
			continue
		}
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		return []Finding{p.finding("hotalloc2", call,
			"argument boxed into %s.%s's ...any on the hot path allocates per call (%s); gate the formatting or precompute the string",
			fn.Pkg().Name(), fn.Name(), n.FullName())}
	}
	return nil
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

// capturesLocals reports (one of) the enclosing local variables a
// function literal captures, or "" for a capture-free literal (which
// the compiler materializes statically, no allocation).
func capturesLocals(p *Package, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == p.Types.Scope() {
			return true // package-level or universe: not a capture
		}
		// Declared outside the literal but inside the function: capture.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
		}
		return true
	})
	return captured
}
