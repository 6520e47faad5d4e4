package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/router").
	Path string
	// ModPath is the module path ("repro"), so analyzers can tell
	// module-internal types from imported ones.
	ModPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// internal reports whether the package is simulation code (under an
// internal/ directory) rather than a command, example or harness.
func (p *Package) internal() bool { return strings.Contains(p.Path+"/", "/internal/") }

// inModule reports whether pkg is declared in this package's module.
func (p *Package) inModule(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == p.ModPath || strings.HasPrefix(pkg.Path(), p.ModPath+"/"))
}

// Loader discovers, parses, and type-checks module packages using only
// the standard library: module-internal imports are type-checked from
// source, everything else comes from the toolchain's export data (with
// a from-source fallback).
type Loader struct {
	ModRoot string // directory containing go.mod
	ModPath string // module path declared there
	Fset    *token.FileSet

	checked map[string]*Package // import path → result
	loading map[string]bool     // cycle detection
	gcImp   types.Importer
	srcImp  types.Importer
}

// NewLoader locates the enclosing module starting from dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		Fset:    fset,
		checked: map[string]*Package{},
		loading: map[string]bool{},
		gcImp:   importer.ForCompiler(fset, "gc", nil),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Load resolves package patterns relative to the loader's module. A
// pattern is a directory ("./internal/router"), a subtree
// ("./..." or "./internal/..."), or an import path within the module.
// Directories named "testdata", "vendor", or starting with "." or "_"
// are skipped during subtree walks (but can be named directly, which is
// how the lint fixtures load themselves).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		walk := false
		if pat == "..." {
			pat, walk = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, walk = rest, true
		}
		if strings.HasPrefix(pat, l.ModPath) {
			// Import-path form: map back onto the module tree.
			pat = "./" + strings.TrimPrefix(strings.TrimPrefix(pat, l.ModPath), "/")
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.ModRoot, pat)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: not a directory in module %s", pat, l.ModPath)
		}
		if !walk {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if len(goFilesIn(path)) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		if len(goFilesIn(dir)) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		p, err := l.check(l.importPathFor(dir), dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// goFilesIn lists the non-test .go files of dir, sorted for
// reproducible load order.
func goFilesIn(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

// Import implements types.Importer: module-internal packages are
// type-checked from source (memoized), everything else is delegated to
// the toolchain importers.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.check(path, filepath.Join(l.ModRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if pkg, err := l.gcImp.Import(path); err == nil {
		return pkg, nil
	}
	// No export data (pristine toolchains since Go 1.20): fall back to
	// type-checking the dependency from source.
	if l.srcImp == nil {
		l.srcImp = importer.ForCompiler(l.Fset, "source", nil)
	}
	return l.srcImp.Import(path)
}

// check parses and type-checks one module package.
func (l *Loader) check(path, dir string) (*Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names := goFilesIn(dir)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s (package %s)", dir, path)
	}
	var files []*ast.File
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		// Record positions relative to the module root so reports are
		// stable regardless of where the tool runs.
		rel, relErr := filepath.Rel(l.ModRoot, name)
		if relErr != nil {
			rel = name
		}
		f, err := parser.ParseFile(l.Fset, filepath.ToSlash(rel), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	p := &Package{
		Path:    path,
		ModPath: l.ModPath,
		Fset:    l.Fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.checked[path] = p
	return p, nil
}
