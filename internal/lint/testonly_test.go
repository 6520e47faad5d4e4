package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOracles are the functions and methods that no binary reaches but
// that a test in another package needs as an oracle, so they cannot move
// into a _test.go file. Each entry names that test. An entry that a
// binary does reach is stale and fails the guard, like a stale
// //nocvet:ignore.
var testOracles = map[string]string{
	"(*internal/network.Network).VerifyQuiescent": "internal/sim TestAllSchemesReachQuiescence (with its callees nic.Quiescent and FlitsInFlight)",
	"(*internal/protocol.Engine).OutstandingTxns": "repro TestSteadyStateZeroAllocsPerCycle: the engine was not measured idle",
	"(*internal/message.Pool).FreeLen":            "internal/sim TestMinBDReleasesToPool, internal/snapshot TestPoolBlobIgnoresChunkSlack",
	"(*internal/nic.NIC).EjectDepth":              "internal/fastpass TestSingleHopArrivesAsItBoards, internal/network TestVerifyQuiescentCatchesEjectionLeak",
	"(*internal/fastpass.Controller).Healed":      "internal/sim TestParentCommitBlobs: the healing blob is taken mid-ride",
	"internal/router.NewVC":                       "internal/fastpass TestStepsMatchesBruteForce: the fake lane host's buffers",
	"(*internal/telemetry.Metrics).Windows":       "internal/sim TestTelemetryCheckpointSplitByteIdentical",
}

// benchLeftovers are dead methods in bench/, whose files only a change
// to the benchmark may edit: stubEnv still implements the three
// router.Env queries that routers replaced with pushed claim masks.
// Delete an entry together with its method.
var benchLeftovers = map[string]bool{
	"(*bench.stubEnv).LinkClaimed":  true,
	"(*bench.stubEnv).EjectClaimed": true,
	"(*bench.stubEnv).InputStalled": true,
}

// TestNoTestOnlyCode fails on every function or method of non-test
// module code that no binary reaches. The roots are every main and init
// function and every package-level var (cmd/, examples/ and bench/ are
// the binaries); an edge is any use of a module object inside a
// declaration, so method values and type references count as well as
// calls. A use of an interface method reaches every module method of the
// same name, and a reached type keeps each method whose name some
// interface declares (module, stdlib or imported), since it may satisfy
// that interface implicitly. Code that only a same-package test uses
// belongs in a _test.go file; code nothing uses belongs nowhere.
func TestNoTestOnlyCode(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	g := newUseGraph(pkgs)

	reached := g.reach(nil)
	var extra []types.Object
	for _, name := range slices.Sorted(maps.Keys(testOracles)) {
		obj := g.byName[name]
		switch {
		case obj == nil:
			t.Errorf("testOracles: %s names no function or method", name)
		case reached[obj]:
			t.Errorf("testOracles: %s is reached by a binary; the entry is stale", name)
		default:
			extra = append(extra, obj)
		}
	}
	reached = g.reach(extra)
	for _, name := range slices.Sorted(maps.Keys(benchLeftovers)) {
		if obj := g.byName[name]; obj == nil || reached[obj] {
			t.Errorf("benchLeftovers: %s is gone or reached; drop the entry", name)
		}
	}
	for _, fn := range g.funcs {
		if !reached[fn] && !benchLeftovers[g.name(fn)] {
			t.Errorf("%s: %s is reached only by tests (move it into a _test.go file, delete it, or list it in testOracles)",
				g.fset.Position(fn.Pos()), g.name(fn))
		}
	}
}

// useGraph links each package-level object and method of the module to
// the module objects its declaration uses.
type useGraph struct {
	fset       *token.FileSet
	modPath    string
	decls      map[types.Object]declSite
	byName     map[string]types.Object
	funcs      []*types.Func                     // declared functions and methods, by position
	roots      []types.Object                    // main, init and package-level vars
	methods    map[string][]*types.Func          // module methods by name
	ofType     map[*types.TypeName][]*types.Func // module methods by receiver base type
	ifaceNames map[string]bool                   // every method name some interface declares
}

type declSite struct {
	node ast.Node
	info *types.Info
}

func newUseGraph(pkgs []*Package) *useGraph {
	g := &useGraph{
		fset:       pkgs[0].Fset,
		modPath:    pkgs[0].ModPath,
		decls:      map[types.Object]declSite{},
		byName:     map[string]types.Object{},
		methods:    map[string][]*types.Func{},
		ofType:     map[*types.TypeName][]*types.Func{},
		ifaceNames: map[string]bool{},
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := p.Info.Defs[d.Name].(*types.Func)
					g.decls[fn] = declSite{d, p.Info}
					g.byName[g.name(fn)] = fn
					if d.Recv == nil {
						if d.Name.Name == "init" || (d.Name.Name == "main" && p.Types.Name() == "main") {
							g.roots = append(g.roots, fn)
							continue
						}
					} else {
						g.methods[fn.Name()] = append(g.methods[fn.Name()], fn)
						if tn := recvTypeName(fn); tn != nil {
							g.ofType[tn] = append(g.ofType[tn], fn)
						}
					}
					g.funcs = append(g.funcs, fn)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							g.decls[p.Info.Defs[s.Name]] = declSite{s, p.Info}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								obj := p.Info.Defs[name]
								if obj == nil {
									continue // blank
								}
								g.decls[obj] = declSite{s, p.Info}
								if d.Tok == token.VAR {
									g.roots = append(g.roots, obj)
								}
							}
						}
					}
				}
			}
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				g.addIfaceNames(it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					g.addIfaceNames(it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	sort.Slice(g.funcs, func(i, j int) bool { return g.funcs[i].Pos() < g.funcs[j].Pos() })
	return g
}

func (g *useGraph) addIfaceNames(it *types.Interface) {
	for i := range it.NumMethods() {
		g.ifaceNames[it.Method(i).Name()] = true
	}
}

// name is an object's report key: its full name without the module
// prefix ("internal/network.VerifyQuiescent",
// "(*internal/nic.NIC).Quiescent").
func (g *useGraph) name(fn *types.Func) string {
	full := fn.FullName()
	full = strings.ReplaceAll(full, g.modPath+"/", "")
	return strings.ReplaceAll(full, g.modPath+".", "")
}

// recvTypeName is the named type a method is declared on.
func recvTypeName(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// reach returns every object reachable from the roots plus extra.
func (g *useGraph) reach(extra []types.Object) map[types.Object]bool {
	reached := map[types.Object]bool{}
	work := append(append([]types.Object{}, g.roots...), extra...)
	push := func(obj types.Object) {
		if _, declared := g.decls[obj]; declared && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range work {
		reached[obj] = true
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		site := g.decls[obj]
		ast.Inspect(site.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch u := site.info.Uses[id].(type) {
			case *types.Func:
				u = u.Origin()
				if recv := u.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					for _, m := range g.methods[u.Name()] {
						push(m)
					}
				}
				push(u)
			case *types.Var:
				push(u.Origin())
			case types.Object:
				push(u)
			}
			return true
		})
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range g.ofType[tn] {
				if g.ifaceNames[m.Name()] {
					push(m)
				}
			}
		}
	}
	return reached
}
