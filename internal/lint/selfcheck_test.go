package lint_test

import (
	"go/token"
	"path/filepath"
	"testing"

	"github.com/imcstudy/imcstudy/internal/lint"
	"github.com/imcstudy/imcstudy/internal/lint/analysis"
	"github.com/imcstudy/imcstudy/internal/lint/load"
)

// TestRepoTreeClean is the repo-wide smoke test: the committed tree
// must produce zero imclint findings, so `make lint` is guaranteed
// green. Any finding
// here means either a real determinism regression or a waiver that
// needs a stated reason.
func TestRepoTreeClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := load.New(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Targets()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		p := ld.Fset().Position(d.Pos)
		t.Errorf("%s:%d:%d: %s: %s", p.Filename, p.Line, p.Column, d.Analyzer, d.Message)
	}
}

// TestDiagnosticOrdering pins the driver contract that findings print
// sorted and de-duplicated, so imclint output is itself byte-stable.
func TestDiagnosticOrdering(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("zz.go", -1, 100)
	g := fset.AddFile("aa.go", -1, 100)
	dup := analysis.Diagnostic{Pos: f.Pos(10), Analyzer: "maprange", Message: "m"}
	ds := []analysis.Diagnostic{
		dup,
		{Pos: f.Pos(5), Analyzer: "nondetflow", Message: "w"},
		dup,
		{Pos: g.Pos(50), Analyzer: "nilguard", Message: "e"},
	}
	got := analysis.SortDiagnostics(fset, ds)
	if len(got) != 3 {
		t.Fatalf("want 3 after dedup, got %d", len(got))
	}
	if fset.Position(got[0].Pos).Filename != "aa.go" {
		t.Errorf("diagnostics not sorted by file: first is %s", fset.Position(got[0].Pos).Filename)
	}
}
