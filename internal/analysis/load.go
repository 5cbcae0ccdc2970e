package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready to be analyzed.
type Package struct {
	Path  string // import path ("mcdc/internal/server")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages entirely from source: the module's
// own packages resolve against the module root, everything else against
// GOROOT via go/build (which also handles GOROOT's vendored deps and build
// constraints). No compiled export data, no network, no go command — so the
// same loader serves cmd/mcdcvet over the real tree and analysistest over
// fake trees under testdata/src.
//
// Dependencies are type-checked with IgnoreFuncBodies (only their exported
// shape matters) and cached per Loader, so one mcdcvet process pays for the
// net/http tree once.
type Loader struct {
	// ModRoot/ModPath anchor intra-module import resolution
	// ("<ModPath>/x/y" → "<ModRoot>/x/y").
	ModRoot string
	ModPath string

	// ExtraRoots are searched before the module and GOROOT: each is a
	// GOPATH-style src directory (analysistest passes <testdata>/src), so
	// test packages can both shadow and import real module packages.
	ExtraRoots []string

	fset     *token.FileSet
	ctxt     build.Context
	imported map[string]*types.Package
}

// NewLoader returns a Loader rooted at the module containing dir (the
// nearest enclosing go.mod). CGo is disabled in the file-selection context:
// pure-Go fallbacks (the `!cgo` halves of the stdlib) type-check cleanly
// offline, cgo halves do not.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		ModRoot:  root,
		ModPath:  path,
		fset:     token.NewFileSet(),
		ctxt:     ctxt,
		imported: make(map[string]*types.Package),
	}, nil
}

// findModule walks upward from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.Trim(strings.TrimSpace(rest), `"`), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// resolveDir maps an import path to its source directory: ExtraRoots first,
// then the module, then go/build (GOROOT + its vendor tree).
func (l *Loader) resolveDir(path, srcDir string) (string, error) {
	for _, root := range l.ExtraRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	if path == l.ModPath {
		return l.ModRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), nil
	}
	bp, err := l.ctxt.Import(path, srcDir, build.FindOnly)
	if err != nil {
		return "", err
	}
	return bp.Dir, nil
}

// parseDir parses the package's non-test Go files (build-constraint
// filtered by go/build) in sorted order.
func (l *Loader) parseDir(dir string, mode parser.Mode) ([]*ast.File, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: dependencies are loaded from
// source with function bodies ignored.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.imported[path]; ok {
		return p, nil
	}
	dir, err := l.resolveDir(path, srcDir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: true,
		// Dependency bodies are skipped, so "declared and not used"-class
		// errors cannot arise; anything surfaced here is fatal below.
		Error: func(error) {},
	}
	p, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	l.imported[path] = p
	return p, nil
}

// LoadDir fully parses and type-checks the package in dir under the given
// import path, with complete type information for analysis. Type errors are
// fatal: analyzers must only ever see packages that compile, the same
// guarantee go vet enjoys.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	files, err := l.parseDir(dir, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, firstErr)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
