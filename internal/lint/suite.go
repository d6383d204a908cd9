package lint

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/lint/analysis"
	"github.com/imcstudy/imcstudy/internal/lint/load"
)

// Analyzers returns the imclint suite in its canonical order.
// StaleWaiver must stay last: it reports directives no other analyzer
// consumed, so every other analyzer has to see the package first.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{MapRange, NilGuard, NondetFlow, SharedMut, StaleWaiver}
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by position (duplicates collapsed), ready to print.
// Packages must arrive in dependency order (load.New preserves
// `go list -deps` post-order), so facts exported by a dependency are
// visible when its importers are analyzed.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	store := analysis.NewFactStore()
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunPackage(store, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	if len(pkgs) > 0 {
		diags = analysis.SortDiagnostics(pkgs[0].Fset, diags)
	}
	return diags, nil
}

// RunPackage runs the suite over one package against a shared fact
// store: first every analyzer's Facts phase (computing and exporting
// this package's facts), then every Run phase. The findings come back
// sorted by position, duplicates collapsed.
func RunPackage(store *analysis.FactStore, pkg *load.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	newPass := func(a *analysis.Analyzer) *analysis.Pass {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		store.Bind(pass)
		return pass
	}
	for _, a := range analyzers {
		if a.Facts == nil {
			continue
		}
		if err := a.Facts(newPass(a)); err != nil {
			return nil, fmt.Errorf("%s facts on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	for _, a := range analyzers {
		if err := a.Run(newPass(a)); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	return analysis.SortDiagnostics(pkg.Fset, diags), nil
}
