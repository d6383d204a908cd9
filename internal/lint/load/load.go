// Package load resolves and type-checks packages for the imclint suite
// without golang.org/x/tools: it shells out to `go list -export -deps`
// once to obtain source file lists and compiler export data (building
// them if stale), then type-checks target packages with the standard
// library's gc importer reading that export data.
package load

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
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Loader type-checks packages against one shared export-data universe.
type Loader struct {
	fset      *token.FileSet
	exports   map[string]string // import path -> export data file
	imp       types.Importer
	goVersion string
	targets   []listPackage
	srcPkgs   map[string]*types.Package // source-checked packages registered for import
}

// New lists patterns (e.g. "./...") in dir with export data and returns
// a loader whose importer can resolve every dependency of the listed
// packages.
//
// Target order is significant: `go list -deps` emits packages in a
// depth-first post-order traversal, i.e. every package appears after
// all of its dependencies, and the loader preserves that order. Fact-
// propagating drivers rely on it — by the time a package is analyzed,
// facts for every dependency it imports have already been computed.
func New(dir string, patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint/load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	ld := &Loader{
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
	}
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint/load: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint/load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			ld.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			ld.targets = append(ld.targets, p)
			if ld.goVersion == "" && p.Module != nil && p.Module.GoVersion != "" {
				ld.goVersion = "go" + p.Module.GoVersion
			}
		}
	}
	ld.imp = importer.ForCompiler(ld.fset, "gc", ld.lookup)
	return ld, nil
}

// Register makes an already source-checked package importable by its
// import path in later Check calls. The analysistest harness uses it so
// one fixture package can import another (fixture packages have no
// compiler export data for the gc importer to find).
func (ld *Loader) Register(pkg *Package) {
	if ld.srcPkgs == nil {
		ld.srcPkgs = make(map[string]*types.Package)
	}
	ld.srcPkgs[pkg.ImportPath] = pkg.Types
}

// chainImporter resolves registered source packages first, then falls
// back to the loader's export-data importer.
type chainImporter struct{ ld *Loader }

func (c chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.ld.srcPkgs[path]; ok {
		return p, nil
	}
	return c.ld.imp.Import(path)
}

func (ld *Loader) lookup(path string) (io.ReadCloser, error) {
	f, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint/load: no export data for %q", path)
	}
	return os.Open(f)
}

// Fset returns the loader's shared file set.
func (ld *Loader) Fset() *token.FileSet { return ld.fset }

// Targets parses and type-checks every package matched by the New
// patterns (dependencies are resolved from export data, not re-checked).
func (ld *Loader) Targets() ([]*Package, error) {
	pkgs := make([]*Package, 0, len(ld.targets))
	for _, t := range ld.targets {
		files := make([]string, len(t.GoFiles))
		for i, gf := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, gf)
		}
		pkg, err := ld.Check(t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Check parses and type-checks one package from an explicit file list.
func (ld *Loader) Check(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/load: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErr error
	conf := types.Config{
		Importer:  chainImporter{ld},
		GoVersion: ld.goVersion,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("lint/load: type-checking %s: %v", importPath, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint/load: type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       ld.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
