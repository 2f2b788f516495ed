package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit an Analyzer runs on.
type Package struct {
	// Path is the package's import path (or a caller-chosen synthetic path
	// for testdata packages loaded by directory).
	Path string
	// Name is the package name from the source.
	Name string
	// Fset positions every file of this load session.
	Fset *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's resolution tables for Files.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json args...` from dir and decodes the
// JSON stream. -export compiles each listed package and reports the path of
// its export data, which is what lets the loader type-check targets from
// source while importing every dependency — stdlib included — without any
// module downloads.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, args...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export-data files `go list
// -export` produced, via the standard gc importer's lookup hook.
type exportImporter struct {
	exports map[string]string // import path -> export file
	imp     types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	ei.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.imp.Import(path)
}

// Loader loads and type-checks packages of the enclosing module for
// analysis. One Loader shares a FileSet, an importer and the `go list`
// dependency survey across every package it loads.
type Loader struct {
	// ModuleDir is the module root the loader resolves patterns from.
	ModuleDir string

	fset    *token.FileSet
	exports map[string]string
	imp     *exportImporter
}

// NewLoader surveys the module's dependency graph (targets plus extra import
// paths, e.g. imports of testdata packages that are invisible to `go list
// ./...`) and prepares an importer over its export data.
func NewLoader(moduleDir string, patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(moduleDir, patterns...)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleDir: moduleDir,
		fset:      token.NewFileSet(),
		exports:   make(map[string]string, len(listed)),
	}
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	l.imp = newExportImporter(l.fset, l.exports)
	return l, nil
}

// Load resolves the patterns to packages and type-checks each from source.
// Test files are not analyzed: the contracts goldfishlint checks are about
// shipped code, and tests legitimately discard errors and allocate freely.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := goList(l.ModuleDir, patterns...)
	if err != nil {
		return nil, err
	}
	// -deps lists dependencies too; keep only the pattern matches, which `go
	// list` flags as non-dependency roots via DepOnly... not exposed in our
	// subset, so re-list without -deps to learn the roots.
	roots, err := goListRoots(l.ModuleDir, patterns...)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]listedPackage, len(listed))
	for _, p := range listed {
		byPath[p.ImportPath] = p
	}
	var pkgs []*Package
	for _, root := range roots {
		p, ok := byPath[root]
		if !ok {
			return nil, fmt.Errorf("lint: pattern root %q missing from go list -deps output", root)
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := l.LoadFiles(p.ImportPath, files...)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goListRoots returns the import paths the patterns name directly.
func goListRoots(dir string, patterns ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, patterns...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line != "" {
			roots = append(roots, line)
		}
	}
	return roots, nil
}

// LoadDir loads the package in dir under the given synthetic import path.
// This is how testdata packages — invisible to the go tool — are loaded:
// their imports still resolve through the module's export data, so a
// testdata file may import real repo packages.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, e.Name()))
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.LoadFiles(importPath, files...)
}

// LoadFiles parses and type-checks one package from the given source files.
func (l *Loader) LoadFiles(importPath string, files ...string) (*Package, error) {
	var astFiles []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		astFiles = append(astFiles, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(importPath, l.fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	name := ""
	if len(astFiles) > 0 {
		name = astFiles[0].Name.Name
	}
	return &Package{
		Path:  importPath,
		Name:  name,
		Fset:  l.fset,
		Files: astFiles,
		Pkg:   pkg,
		Info:  info,
	}, nil
}
