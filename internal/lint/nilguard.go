package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/imcstudy/imcstudy/internal/lint/analysis"
)

// NilGuard enforces the acquisition contract of the testbed's two
// nil-disabled subsystems: internal/metrics instruments must come from
// Registry accessors (nil-safe, registered for the deterministic
// JSON/CSV encoders), and internal/prof values from prof.New (nil is
// the disabled profiler the engine hot path checks against) or
// prof.Decode / Result.Profile (which validate the schema).
// Constructing a guarded type directly — composite literal, new, or a
// value-typed variable/field — yields a phantom: an instrument that
// records when telemetry is off and never reaches a snapshot or digest,
// a profiler whose interning tables are nil maps, or a profile that
// skipped validation. A value type can never be the nil "disabled"
// sentinel that staging, transport, the hpc NIC observer and sim.Engine
// cache against. The guarded package itself is exempt: its constructors
// are the accessors.
var NilGuard = &analysis.Analyzer{
	Name: "nilguard",
	Doc:  "requires metrics instruments and prof values to come from their nil-guarded accessors, not direct construction",
	Run:  runNilGuard,
}

// guardedPkg is one nil-disabled package: its name (matched as
// "<name>" or ".../internal/<name>", so fixtures resolve like the
// tree), what its accessors are called in diagnostics, and each guarded
// type with the accessor that mints it.
type guardedPkg struct {
	name      string
	accessors string
	types     map[string]string
}

var guardedPkgs = []guardedPkg{
	{name: "metrics", accessors: "Registry", types: map[string]string{
		"Counter":   "reg.Counter(name)",
		"Gauge":     "reg.Gauge(name)",
		"Histogram": "reg.Histogram(name)",
		"Series":    "reg.Series(name)",
		// A &Registry{} bypasses NewRegistry's map and clock
		// initialization and panics on first use.
		"Registry": "metrics.NewRegistry",
	}},
	{name: "prof", accessors: "prof", types: map[string]string{
		"Profiler": "prof.New",
		"Profile":  "prof.Decode or a profiled run's Result.Profile",
	}},
}

// guardedType returns the package row and type name when t is a bare
// (non pointer) guarded type declared outside the package under
// analysis, else nil.
func guardedType(pass *analysis.Pass, t types.Type) (*guardedPkg, string) {
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return nil, ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
		return nil, ""
	}
	path := obj.Pkg().Path()
	for i := range guardedPkgs {
		g := &guardedPkgs[i]
		if (path == g.name || strings.HasSuffix(path, "/internal/"+g.name)) && g.types[obj.Name()] != "" {
			return g, obj.Name()
		}
	}
	return nil, ""
}

func runNilGuard(pass *analysis.Pass) error {
	w := collectWaivers(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if g, t := guardedType(pass, pass.TypesInfo.TypeOf(n)); g != nil && !waived(pass, w, n.Pos()) {
					pass.Reportf(n.Pos(), "%s.%s constructed directly; obtain it from %s or waive with //imclint:deterministic -- reason", g.name, t, g.types[t])
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "new" && len(n.Args) == 1 {
						if g, t := guardedType(pass, pass.TypesInfo.TypeOf(n.Args[0])); g != nil && !waived(pass, w, n.Pos()) {
							pass.Reportf(n.Pos(), "new(%s.%s) bypasses the %s accessors; use %s or waive with //imclint:deterministic -- reason", g.name, t, g.accessors, g.types[t])
						}
					}
				}
			case *ast.ValueSpec:
				// var c metrics.Counter (value, not pointer): methods work
				// but the value can never be the nil "disabled" sentinel.
				if n.Type != nil {
					if g, t := guardedType(pass, pass.TypesInfo.TypeOf(n.Type)); g != nil && !waived(pass, w, n.Pos()) {
						pass.Reportf(n.Pos(), "value-typed %s.%s variable; declare *%s.%s and fill it from %s or waive with //imclint:deterministic -- reason", g.name, t, g.name, t, g.types[t])
					}
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					if g, t := guardedType(pass, pass.TypesInfo.TypeOf(fld.Type)); g != nil && !waived(pass, w, fld.Pos()) {
						pass.Reportf(fld.Pos(), "value-typed %s.%s field; store *%s.%s obtained from %s or waive with //imclint:deterministic -- reason", g.name, t, g.name, t, g.types[t])
					}
				}
			}
			return true
		})
	}
	return nil
}
