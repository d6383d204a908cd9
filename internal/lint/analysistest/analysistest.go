// Package analysistest runs an imclint analyzer over fixture packages
// under testdata/src and checks its findings against `// want "regexp"`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// top of the repo's stdlib-only framework.
//
// A fixture line may carry several expectations:
//
//	for k := range m { // want `order-dependent body` `second regexp`
//
// Both `backquoted` and "quoted" forms are accepted. Every diagnostic
// must match a want on its line and every want must be consumed.
// Fixtures may import the real module packages (internal/sim,
// internal/metrics, ...) and any stdlib package the module already
// depends on; imports are resolved from one shared `go list -export`
// universe built at the module root.
//
// Fixture packages may also import each other: list the dependency
// before the dependent ("helperutil" before "staging/nondetflow") and
// it is type-checked first, registered with the loader under its
// fixture path, and its exported facts are visible downstream — the
// cross-package taint scenario the nondetflow analyzer exists for.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/imcstudy/imcstudy/internal/lint"
	"github.com/imcstudy/imcstudy/internal/lint/analysis"
	"github.com/imcstudy/imcstudy/internal/lint/load"
)

var (
	loaderOnce sync.Once
	loader     *load.Loader
	loaderErr  error
)

// sharedLoader builds the export-data universe once per test binary.
func sharedLoader() (*load.Loader, error) {
	loaderOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = load.New(root, "./...")
	})
	return loader, loaderErr
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysistest: no go.mod above working directory")
		}
		dir = parent
	}
}

// Run applies one analyzer to each fixture package (a path under
// testdata/src, e.g. "staging/maprange"), in order, and reports
// mismatches through t. Each package goes through lint.RunPackage, the
// driver's own pass loop, against one shared fact store, so facts flow
// between fixtures exactly as between real packages.
func Run(t *testing.T, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	RunSuite(t, []*analysis.Analyzer{a}, pkgpaths...)
}

// RunSuite applies a whole analyzer suite to the fixture packages and
// checks wants against the union of every analyzer's findings. This is
// what stalewaiver fixtures need: a waiver is only provably stale after
// every analyzer that might have consumed it has run.
func RunSuite(t *testing.T, analyzers []*analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	store := analysis.NewFactStore()
	names := strings.Join(analyzerNames(analyzers), ",")
	for _, pkgpath := range pkgpaths {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgpath))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("analysistest: no fixture files in %s", dir)
		}
		sort.Strings(files)
		pkg, err := ld.Check(pkgpath, dir, files)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		ld.Register(pkg) // later fixtures may import this one by its path
		wants, err := collectWants(files)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := lint.RunPackage(store, pkg, analyzers)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			if !consume(wants, p.Filename, p.Line, d.Message) {
				t.Errorf("%s:%d: unexpected %s diagnostic: %s", p.Filename, p.Line, d.Analyzer, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no %s diagnostic matched %q", w.file, w.line, names, w.re.String())
			}
		}
	}
}

func analyzerNames(analyzers []*analysis.Analyzer) []string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return names
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE pulls the quoted expectations off a `// want` comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func collectWants(filenames []string) ([]*want, error) {
	var wants []*want
	for _, name := range filenames {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			_, after, found := strings.Cut(lineText, "// want ")
			if !found {
				continue
			}
			ms := wantRE.FindAllStringSubmatch(after, -1)
			if len(ms) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment (need `regexp` or \"regexp\")", name, i+1)
			}
			for _, m := range ms {
				text := m[1]
				if m[1] == "" {
					text = m[2]
				}
				re, err := regexp.Compile(text)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp: %v", name, i+1, err)
				}
				wants = append(wants, &want{file: name, line: i + 1, re: re})
			}
		}
	}
	return wants, nil
}

func consume(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.line != line || !sameFile(w.file, file) {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// sameFile compares the relative fixture path against the (possibly
// absolute) diagnostic path.
func sameFile(wantFile, diagFile string) bool {
	return wantFile == diagFile || strings.HasSuffix(diagFile, filepath.ToSlash(wantFile)) ||
		strings.HasSuffix(filepath.ToSlash(diagFile), filepath.ToSlash(wantFile))
}
