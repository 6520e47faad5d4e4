package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the whole-program layer under nocvet's interprocedural
// analyzers (phasesafe, dettaint, hotalloc2): a type-resolved,
// cross-package call graph over every package handed to one nocvet run,
// built from the stdlib type checker alone.
//
// Three source directives feed it. All attach to declarations (doc
// comment or the trailing comment of a struct field):
//
//	//nocvet:phase <route|alloc|traverse|commit>
//	    marks a function as a root of one phase of the cycle engine;
//	    the phase owns everything reachable from its roots that is not
//	    itself annotated with a different phase.
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
//	//nocvet:shared
//	    marks a struct whose fields are shard-global state: phasesafe
//	    applies its hazard checks to exactly these fields. Per-node
//	    state (routers, NICs, VCs) is shard-local by construction and
//	    stays unmarked.
//	//nocvet:buffered
//	    marks one field of a shared struct as double-buffered (the
//	    cur/next register pair idiom); phasesafe exempts it.
//
// Resolution is static and conservative: direct calls resolve exactly;
// a call through an interface method fans out to every module-declared
// concrete method that implements the interface; calls through plain
// func values (fields like NIC.Inject or Network.Probe) are not
// resolved — the cycle engine annotates their targets explicitly
// instead (Router.InjectPacket carries its own phase root).

// Directive spellings recognized on declarations.
const (
	phaseDirective    = "nocvet:phase"
	hotDirective      = "nocvet:hot"
	coldDirective     = "nocvet:cold"
	sharedDirective   = "nocvet:shared"
	bufferedDirective = "nocvet:buffered"
)

// PhaseNames is the closed set of cycle-engine phases, in execution
// order within a cycle. consume (NIC ejection-queue drain through the
// protocol engine / packet arena) is serial even under intra-sim
// sharding; the rest are the classic route/alloc/traverse pipeline plus
// the register-shift commit.
var PhaseNames = []string{"consume", "route", "alloc", "traverse", "commit"}

// FuncNode is one declared function or method in the program graph.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Phase is the cycle-engine phase this function roots (from a
	// //nocvet:phase directive), or "".
	Phase string
	// Hot marks an explicit //nocvet:hot root.
	Hot bool
	// Cold marks a //nocvet:cold rare-event boundary: hotalloc2 stops
	// its hot-path traversal here instead of flagging allocations in a
	// subtree that provably runs on rare events, not per cycle.
	Cold bool

	// Callees are the statically resolvable outgoing edges, sorted by
	// full name and deduplicated.
	Callees []*FuncNode

	calleeSet map[*FuncNode]bool
}

// FullName is the stable identifier used in reports: the import path
// relative to the module, plus receiver and name
// ("internal/router.(*Router).transmit").
func (n *FuncNode) FullName() string {
	full := n.Obj.FullName()
	return strings.TrimPrefix(strings.TrimPrefix(full, n.Pkg.ModPath+"/"), n.Pkg.ModPath+".")
}

// FieldInfo describes one field of a module-declared struct.
type FieldInfo struct {
	Owner *types.TypeName
	Pkg   *Package
	// Shared and Buffered mirror the //nocvet:shared (on the struct)
	// and //nocvet:buffered (on the field) directives.
	Shared   bool
	Buffered bool
	Pos      token.Pos
}

// Program is the whole-program view: every loaded package, the call
// graph over their declared functions, and the module's struct fields.
type Program struct {
	Pkgs    []*Package
	ModPath string
	Fset    *token.FileSet

	// Funcs lists every declared function, sorted by FullName.
	Funcs []*FuncNode

	byObj  map[*types.Func]*FuncNode
	fields map[*types.Var]*FieldInfo

	// ifaceMethods maps an interface method object to the concrete
	// module methods that implement it (the fan-out of a dynamic call).
	ifaceMethods map[*types.Func][]*FuncNode
}

// Node returns the graph node for a function object, or nil when the
// function is not declared in the analyzed packages.
func (prog *Program) Node(fn *types.Func) *FuncNode { return prog.byObj[fn] }

// Field returns module-struct metadata for a field object, or nil.
func (prog *Program) Field(v *types.Var) *FieldInfo { return prog.fields[v] }

// FieldKey is the stable report identifier of a struct field:
// "internal/network.channel.next".
func (prog *Program) FieldKey(v *types.Var) string {
	fi := prog.fields[v]
	if fi == nil {
		return ""
	}
	pkg := strings.TrimPrefix(strings.TrimPrefix(fi.Pkg.Path, prog.ModPath+"/"), prog.ModPath)
	if pkg == "" {
		pkg = "."
	}
	return pkg + "." + fi.Owner.Name() + "." + v.Name()
}

// BuildProgram assembles the call graph over the loaded packages. The
// same package set always yields the same graph: every slice in the
// result is explicitly sorted.
func BuildProgram(pkgs []*Package) *Program {
	if len(pkgs) == 0 {
		panic("lint: BuildProgram on empty package set")
	}
	prog := &Program{
		Pkgs:         pkgs,
		Fset:         pkgs[0].Fset,
		ModPath:      pkgs[0].ModPath,
		byObj:        map[*types.Func]*FuncNode{},
		fields:       map[*types.Var]*FieldInfo{},
		ifaceMethods: map[*types.Func][]*FuncNode{},
	}
	// Pass 1: declare nodes, parse directives, index struct fields.
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					n := &FuncNode{Obj: obj, Decl: d, Pkg: p, calleeSet: map[*FuncNode]bool{}}
					n.Phase = directiveArg(d.Doc, phaseDirective)
					n.Hot = hasDirective(d.Doc, hotDirective)
					n.Cold = hasDirective(d.Doc, coldDirective)
					prog.byObj[obj] = n
					prog.Funcs = append(prog.Funcs, n)
				case *ast.GenDecl:
					prog.indexTypes(p, d)
				}
			}
		}
	}
	sort.Slice(prog.Funcs, func(i, j int) bool {
		return prog.Funcs[i].FullName() < prog.Funcs[j].FullName()
	})
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
				n.addCallee(callee)
				return true
			}
			// Dynamic dispatch: fan out to every module implementation.
			for _, impl := range prog.ifaceMethods[fn] {
				n.addCallee(impl)
			}
			return true
		})
		n.Callees = make([]*FuncNode, 0, len(n.calleeSet))
		for c := range n.calleeSet {
			n.Callees = append(n.Callees, c)
		}
		sort.Slice(n.Callees, func(i, j int) bool {
			return n.Callees[i].FullName() < n.Callees[j].FullName()
		})
	}
	return prog
}

func (n *FuncNode) addCallee(c *FuncNode) { n.calleeSet[c] = true }

// indexTypes records struct fields (with shared/buffered directives) of
// one type declaration group.
func (prog *Program) indexTypes(p *Package, d *ast.GenDecl) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		shared := hasDirective(d.Doc, sharedDirective) || hasDirective(ts.Doc, sharedDirective) ||
			hasDirective(ts.Comment, sharedDirective)
		for _, field := range st.Fields.List {
			buffered := hasDirective(field.Doc, bufferedDirective) || hasDirective(field.Comment, bufferedDirective)
			for _, name := range field.Names {
				fv, ok := p.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				prog.fields[fv] = &FieldInfo{
					Owner: obj, Pkg: p, Shared: shared, Buffered: buffered, Pos: name.Pos(),
				}
			}
			// Embedded fields: the field object still exists.
			if len(field.Names) == 0 {
				if id := embeddedIdent(field.Type); id != nil {
					if fv, ok := p.Info.Defs[id].(*types.Var); ok {
						prog.fields[fv] = &FieldInfo{
							Owner: obj, Pkg: p, Shared: shared, Buffered: buffered, Pos: id.Pos(),
						}
					}
				}
			}
		}
	}
}

// embeddedIdent digs the name identifier out of an embedded field type.
func embeddedIdent(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedIdent(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}

// indexInterfaces links every interface method declared in the loaded
// packages to the module methods that implement it.
func (prog *Program) indexInterfaces() {
	// Collect the named interface types of all loaded packages.
	var ifaces []*types.Interface
	var concrete []*FuncNode
	for _, p := range prog.Pkgs {
		scope := p.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, n := range prog.Funcs {
		if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); !isIface {
				concrete = append(concrete, n)
			}
		}
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			for _, impl := range concrete {
				if impl.Obj.Name() != m.Name() {
					continue
				}
				recv := impl.Obj.Type().(*types.Signature).Recv().Type()
				if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
					prog.ifaceMethods[m] = append(prog.ifaceMethods[m], impl)
				}
			}
		}
	}
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
// function, every //nocvet:phase root, and — when the network package
// is part of the program — every module implementation of its
// Controller interface's PreCycle/PostCycle (the controllers' per-cycle
// scans run inside Step's cycle budget even though Step never calls
// them by name).
func (prog *Program) HotRoots() []*FuncNode {
	var roots []*FuncNode
	for _, n := range prog.Funcs {
		if n.Hot || n.Phase != "" {
			roots = append(roots, n)
		}
	}
	if ctrl := prog.controllerInterface(); ctrl != nil {
		for _, n := range prog.Funcs {
			name := n.Obj.Name()
			if name != "PreCycle" && name != "PostCycle" {
				continue
			}
			sig := n.Obj.Type().(*types.Signature)
			if sig.Recv() == nil {
				continue
			}
			recv := sig.Recv().Type()
			if types.Implements(recv, ctrl) || types.Implements(types.NewPointer(recv), ctrl) {
				roots = append(roots, n)
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })
	return slices.Compact(roots) // a hot phase root could qualify twice
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
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	return directiveLine(cg, directive) != nil
}

// directiveArg returns the first argument of the directive ("route" in
// "//nocvet:phase route"), or "" when absent.
func directiveArg(cg *ast.CommentGroup, directive string) string {
	c := directiveLine(cg, directive)
	if c == nil {
		return ""
	}
	rest := strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), directive)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// directiveLine finds the comment of a group that starts with the
// directive, or nil. An exact-prefix match is required so that the
// phase directive does not also match a hypothetical longer name
// sharing its spelling as a prefix.
func directiveLine(cg *ast.CommentGroup, directive string) *ast.Comment {
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return c
		}
	}
	return nil
}

// --- field access collection (used by phasesafe and dettaint) ---

// fieldAccess is one read or write of a module struct field.
type fieldAccess struct {
	field *types.Var
	write bool
	node  ast.Node
}

// collectFieldAccesses walks one function body and reports every module
// struct field it reads or writes, including accesses inside function
// literals (a closure's body executes on behalf of its creator as far
// as phase ownership is concerned). Writes are recognized on
// assignment targets (through index/star/paren wrappers), compound
// assignments, ++/--, address-of, and keyed or positional struct
// literal construction; everything else is a read.
func collectFieldAccesses(p *Package, prog *Program, body ast.Node, visit func(fieldAccess)) {
	// writePos marks selector expressions that appear in write position.
	writes := map[*ast.SelectorExpr]bool{}
	rmw := map[*ast.SelectorExpr]bool{} // also read (x++, x += y, &x)
	markTarget := func(e ast.Expr, alsoRead bool) {
		if sel, ok := baseSelector(e); ok {
			writes[sel] = true
			if alsoRead {
				rmw[sel] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			alsoRead := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
			for _, lhs := range n.Lhs {
				markTarget(lhs, alsoRead)
			}
		case *ast.IncDecStmt:
			markTarget(n.X, true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// Taking a field's address escapes it to unknown writers.
				markTarget(n.X, true)
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := p.Info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			fv, ok := sel.Obj().(*types.Var)
			if !ok || prog.Field(fv) == nil {
				return true
			}
			if writes[n] {
				visit(fieldAccess{field: fv, write: true, node: n})
				if rmw[n] {
					visit(fieldAccess{field: fv, write: false, node: n})
				}
			} else {
				visit(fieldAccess{field: fv, write: false, node: n})
			}
		case *ast.CompositeLit:
			st, ok := p.Info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if fv, ok := p.Info.Uses[id].(*types.Var); ok && prog.Field(fv) != nil {
							visit(fieldAccess{field: fv, write: true, node: kv})
						}
					}
				} else if i < st.NumFields() {
					if fv := st.Field(i); prog.Field(fv) != nil {
						visit(fieldAccess{field: fv, write: true, node: elt})
					}
				}
			}
		}
		return true
	})
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
