package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the whole-program layer under nocvet's interprocedural
// analyzers (dettaint, hotalloc2): a type-resolved, cross-package call
// graph over every package handed to one nocvet run, built from the
// stdlib type checker alone.
//
// Two source directives feed it, both in a function's doc comment:
//
//	//nocvet:hot
//	    marks a function as an extra per-cycle hot-path root for
//	    dettaint and hotalloc2 (Network.Step carries it; Controller
//	    PreCycle/PostCycle implementations are discovered by type).
//	//nocvet:cold <reason>
//	    marks a function as a rare-event boundary: hotalloc2 does not
//	    traverse into it or its callees (e.g. the FastPass healing
//	    re-derivation, which runs once per permanent link failure, not
//	    per cycle). Only the allocation rule is scoped this way — the
//	    determinism analyzers still cover cold code, because rare code
//	    still mutates simulated state.
//
// Resolution is static and conservative: direct calls resolve exactly;
// a call through an interface method fans out to every module-declared
// concrete method that implements the interface; calls through plain
// func values (fields like NIC.Inject or Network.Probe) are not
// resolved — the cycle engine marks their targets //nocvet:hot instead
// (Router.InjectPacket, reached through NIC.Inject, is one).

// Directive spellings recognized on declarations.
const (
	hotDirective  = "nocvet:hot"
	coldDirective = "nocvet:cold"
)

// FuncNode is one declared function or method in the program graph.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Hot marks an explicit //nocvet:hot root.
	Hot bool
	// Cold marks a //nocvet:cold rare-event boundary: hotalloc2 stops
	// its hot-path traversal here instead of flagging allocations in a
	// subtree that provably runs on rare events, not per cycle.
	Cold bool

	// Callees are the statically resolvable outgoing edges, sorted by
	// full name and deduplicated.
	Callees []*FuncNode
}

// FullName is the stable identifier used in reports: the import path
// relative to the module, plus receiver and name
// ("internal/router.(*Router).transmit").
func (n *FuncNode) FullName() string {
	full := n.Obj.FullName()
	return strings.TrimPrefix(strings.TrimPrefix(full, n.Pkg.ModPath+"/"), n.Pkg.ModPath+".")
}

// Program is the whole-program view: every loaded package and the call
// graph over their declared functions.
type Program struct {
	Pkgs []*Package

	// Funcs lists every declared function, sorted by FullName.
	Funcs []*FuncNode

	// byObj maps a function object to its node; a function declared
	// outside the analyzed packages has none.
	byObj map[*types.Func]*FuncNode

	// ifaceMethods maps an interface method object to the concrete
	// module methods that implement it (the fan-out of a dynamic call).
	ifaceMethods map[*types.Func][]*FuncNode
}

// FieldKey is the stable report identifier of the struct field a
// field selection names — "internal/network.channel.next" — or "" unless
// that struct is simulator state: a named type declared at package
// level in a package of this run. The declaring struct is read off the
// selection: its receiver type walked along the embedding path, so a
// promoted field names the embedded struct and a field of an
// instantiated generic names the generic type.
func (prog *Program) FieldKey(s *types.Selection) string {
	t := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] {
		t = deref(t).Underlying().(*types.Struct).Field(i).Type()
	}
	named, ok := types.Unalias(deref(t)).(*types.Named)
	if !ok {
		return ""
	}
	owner := named.Origin().Obj()
	i := slices.IndexFunc(prog.Pkgs, func(p *Package) bool { return p.Types == owner.Pkg() })
	if i < 0 || owner.Parent() != owner.Pkg().Scope() {
		return ""
	}
	p := prog.Pkgs[i]
	pkg := strings.TrimPrefix(strings.TrimPrefix(p.Path, p.ModPath+"/"), p.ModPath)
	if pkg == "" {
		pkg = "."
	}
	return pkg + "." + owner.Name() + "." + s.Obj().Name()
}

// deref strips one pointer from a field selection's operand type.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// BuildProgram assembles the call graph over the loaded packages. The
// same package set always yields the same graph: every slice in the
// result is explicitly sorted.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:         pkgs,
		byObj:        map[*types.Func]*FuncNode{},
		ifaceMethods: map[*types.Func][]*FuncNode{},
	}
	// Pass 1: declare nodes and parse directives.
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: d, Pkg: p}
				n.Hot = hasDirective(d.Doc, hotDirective)
				n.Cold = hasDirective(d.Doc, coldDirective)
				prog.byObj[obj] = n
				prog.Funcs = append(prog.Funcs, n)
			}
		}
	}
	prog.Funcs = sortByName(prog.Funcs)
	prog.indexInterfaces()
	// Pass 2: edges.
	for _, n := range prog.Funcs {
		if n.Decl.Body == nil {
			continue
		}
		n := n
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calledFunc(n.Pkg, call)
			if fn == nil {
				return true
			}
			if callee := prog.byObj[fn]; callee != nil {
				n.Callees = append(n.Callees, callee)
			} else {
				// Dynamic dispatch: fan out to every module implementation.
				n.Callees = append(n.Callees, prog.ifaceMethods[fn]...)
			}
			return true
		})
		n.Callees = sortByName(n.Callees)
	}
	return prog
}

// sortByName sorts nodes by full name and drops repeats.
func sortByName(nodes []*FuncNode) []*FuncNode {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].FullName() < nodes[j].FullName() })
	return slices.Compact(nodes)
}

// indexInterfaces links every interface method declared in the loaded
// packages to the module methods that implement it.
func (prog *Program) indexInterfaces() {
	// Collect the named interface types of all loaded packages.
	var ifaces []*types.Interface
	for _, p := range prog.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() { // already sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			m := it.Method(i)
			for _, impl := range prog.Funcs {
				if impl.Obj.Name() == m.Name() && impl.implements(it) {
					prog.ifaceMethods[m] = append(prog.ifaceMethods[m], impl)
				}
			}
		}
	}
}

// implements reports whether n is a method whose receiver type, or a
// pointer to it, implements it.
func (n *FuncNode) implements(it *types.Interface) bool {
	recv := n.Obj.Signature().Recv()
	return recv != nil && (types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(recv.Type()), it))
}

// Reachable computes the closure of roots over the call graph. A node
// for which stop returns true is neither included nor traversed
// (unless it is itself a root); nil means no boundary.
func (prog *Program) Reachable(roots []*FuncNode, stop func(*FuncNode) bool) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	var queue []*FuncNode
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if seen[c] || (stop != nil && stop(c)) {
				continue
			}
			seen[c] = true
			queue = append(queue, c)
		}
	}
	return seen
}

// HotRoots returns the per-cycle entry points: every //nocvet:hot
// function and — when the network package is part of the program —
// every module implementation of its Controller interface's
// PreCycle/PostCycle (the controllers' per-cycle
// scans run inside Step's cycle budget even though Step never calls
// them by name).
func (prog *Program) HotRoots() []*FuncNode {
	var roots []*FuncNode
	for _, n := range prog.Funcs {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	if ctrl := prog.controllerInterface(); ctrl != nil {
		for _, n := range prog.Funcs {
			if name := n.Obj.Name(); (name == "PreCycle" || name == "PostCycle") && n.implements(ctrl) {
				roots = append(roots, n)
			}
		}
	}
	return sortByName(roots) // a hot PreCycle could qualify twice
}

// controllerInterface locates the network package's Controller
// interface, or nil when that package is not part of this run.
func (prog *Program) controllerInterface() *types.Interface {
	for _, p := range prog.Pkgs {
		if !strings.HasSuffix(p.Path, "/internal/network") {
			continue
		}
		if tn, ok := p.Types.Scope().Lookup("Controller").(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				return it
			}
		}
	}
	return nil
}

// hasDirective reports whether a comment group carries the directive.
// An exact-prefix match is required, so that a directive does not also
// match a longer name sharing its spelling as a prefix.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// baseSelector unwraps index/star/paren layers of a write target down
// to the selector naming the written field: `n.claims[i] = x` writes
// field claims; `ch.next = tr` writes field next.
func baseSelector(e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t, true
		default:
			return nil, false
		}
	}
}
