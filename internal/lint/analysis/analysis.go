// Package analysis is a self-contained miniature of golang.org/x/tools'
// go/analysis framework: an Analyzer inspects one type-checked package
// through a Pass and reports position-anchored Diagnostics.
//
// The real x/tools module would be the obvious dependency, but this
// repository builds hermetically from the standard library alone (no
// module downloads in CI or air-gapped runs), so the ~150 lines of
// framework the imclint suite actually needs live here instead. The API
// mirrors x/tools closely enough that the analyzers would port over
// mechanically if the dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of the check.
	Doc string

	// Facts, when non-nil, runs before any analyzer's Run on every
	// package the driver sees — including packages outside the
	// analyzer's reporting scope — and may export facts on the
	// package's objects with Pass.ExportObjectFact. Drivers process
	// packages in dependency order, so Facts can already import facts
	// from the package's dependencies.
	Facts func(*Pass) error

	// Run applies the analyzer to one package and reports diagnostics.
	Run func(*Pass) error
}

// Pass presents one type-checked package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// Fact hooks, wired by the driver via FactStore.Bind. Nil hooks
	// make exports no-ops and imports always-miss, so analyzers stay
	// runnable under fact-less drivers.
	exportObjectFact func(types.Object, Fact) error
	importObjectFact func(types.Object, Fact) bool
}

// ExportObjectFact attaches fact to obj, making it visible to later
// passes over this package and to passes over importing packages. Obj
// must be a package-level function, method or variable of the package
// under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) error {
	if p.exportObjectFact == nil {
		return nil
	}
	return p.exportObjectFact(obj, fact)
}

// ImportObjectFact fills fact (a pointer to the queried fact type) with
// the fact of that type attached to obj, reporting whether one exists.
// Obj may belong to any package the driver has already processed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.importObjectFact == nil {
		return false
	}
	return p.importObjectFact(obj, fact)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Posn resolves a diagnostic position against the pass's file set.
func (p *Pass) Posn(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// SortDiagnostics orders findings by (file, line, column, analyzer,
// message) and drops exact duplicates, so driver output is byte-stable
// regardless of analyzer execution order.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) []Diagnostic {
	type keyed struct {
		key string
		d   Diagnostic
	}
	ks := make([]keyed, 0, len(ds))
	for _, d := range ds {
		p := fset.Position(d.Pos)
		ks = append(ks, keyed{
			key: fmt.Sprintf("%s\x00%08d\x00%08d\x00%s\x00%s", p.Filename, p.Line, p.Column, d.Analyzer, d.Message),
			d:   d,
		})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := ds[:0]
	var last string
	for i, k := range ks {
		if i > 0 && k.key == last {
			continue
		}
		last = k.key
		out = append(out, k.d)
	}
	return out
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. Tests measure wall time and shake data structures with ad-hoc
// iteration on purpose, so the determinism analyzers skip them.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
