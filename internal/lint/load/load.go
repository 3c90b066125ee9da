// Package load parses and type-checks this module's packages for the lint
// analyzers, offline, from the standard library alone: module-internal
// imports resolve recursively against the module root, and everything else
// (the standard library) resolves through go/importer's source importer.
// It is the piece golang.org/x/tools/go/packages would provide if the repo
// took on that dependency.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/engine").
	Path string
	// Dir is the directory the files came from.
	Dir string
	// Files are the parsed non-test files, in filename order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages rooted at one module, memoizing by import path so
// a whole-tree lint run type-checks each package (and the standard library)
// once.
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// New creates a loader for the module rooted at dir (the directory holding
// go.mod).
func New(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint loader: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint loader: no module line in %s/go.mod", dir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    dir,
		module:  module,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// Module returns the module path from go.mod.
func (l *Loader) Module() string { return l.module }

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// Load parses and type-checks the package in dir, which must lie inside
// the module root; its import path is derived from the relative location.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint loader: %s is outside module root %s", dir, l.root)
	}
	path := l.module
	if rel != "." {
		path = l.module + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// Import implements types.Importer: module-internal paths load
// recursively, all others fall through to the standard library's source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		p, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint loader: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint loader: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Only the files the go tool builds on this platform: a package may
		// split its code by build constraint (internal/tcp).
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, fmt.Errorf("lint loader: %w", err)
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint loader: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
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
		return nil, fmt.Errorf("lint loader: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// PackageDirs walks the subtree at root (which must lie inside the
// loader's module) and returns, sorted, every directory holding at least
// one non-test Go file. testdata directories — analyzer fixtures with
// deliberate violations — and hidden/underscore directories are skipped,
// matching the go tool's ./... expansion.
func (l *Loader) PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
