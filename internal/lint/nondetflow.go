package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/imcstudy/imcstudy/internal/lint/analysis"
)

// NondetFlow keeps nondeterminism out of modelled packages. Modelled
// code advances on the virtual clock (sim.Engine.Now / Proc.Sleep),
// draws randomness from explicitly seeded sources
// (rand.New(rand.NewSource(seed))) and reads nothing from the host, so
// two runs of the same configuration stay byte-identical — the property
// every golden in EXPERIMENTS.md relies on. The nondeterminism roots
// are:
//
//   - the wall clock (time.Now/Since/Sleep/...),
//   - the global math/rand source (rand.Intn and friends),
//   - the process environment and host identity (os.Getenv, os.Environ,
//     os.Hostname, os.Getpid, ...),
//   - order-dependent map iteration (same classifier as maprange).
//
// Wrapping a root in a helper that lives in a non-modelled package
// would launder it into modelled code, so NondetFlow runs a facts pass.
// For every function in every package the driver sees — modelled or
// not — it computes whether the function (directly, or via any chain of
// calls, across package boundaries) reaches a root, and exports a
// NondetFact on the tainted ones. The driver's fact store carries the
// facts to importers. The reporting pass then flags, inside modelled
// packages only (test files exempt):
//
//   - every reference to a stdlib root, called in any form (t.F(),
//     (t.F)(), a dot-imported F(), an instantiated generic F[T]()) or
//     used as a value (f := time.Now),
//   - any call to (or reference of) a tainted function defined outside
//     modelled scope — the laundering case, with a witness chain.
//
// A reasoned //imclint:deterministic waiver at the source kills the
// taint (the helper is "sanitized": its nondeterminism provably never
// reaches modelled state); a waiver at the modelled use suppresses that
// one finding.
var NondetFlow = &analysis.Analyzer{
	Name:  "nondetflow",
	Doc:   "flags wall-clock, global-rand and environment reads in modelled code, and calls into functions that transitively reach them or map iteration order",
	Facts: computeNondetFacts,
	Run:   runNondetFlow,
}

// NondetFact marks a function that (directly or via any call chain,
// across packages) reaches a nondeterminism root. Chain is one witness
// path, e.g. "helperutil.Chain → helperutil.WrapNow → time.Now".
type NondetFact struct{ Chain string }

// AFact marks NondetFact as an analysis fact.
func (*NondetFact) AFact() {}

// bannedTime are the package-level `time` functions that read or wait
// on the wall clock. Pure constructors/converters (time.Duration,
// time.Unix, time.Date) stay legal.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand are the package-level math/rand (and /v2) functions that
// construct explicitly seeded generators; every other package-level
// function uses the shared global source and is a root. Methods on a
// *rand.Rand are always fine — the source was seeded at construction.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// envFuncs are the package-level os functions that read the process
// environment or host identity — values that differ between two runs of
// the same configuration on different hosts, shells or CI runners.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	"Hostname": true, "Getpid": true, "Getppid": true, "Getwd": true,
	"TempDir": true, "UserHomeDir": true, "UserCacheDir": true, "UserConfigDir": true,
}

// intrinsicSource reports whether fn is one of the stdlib
// nondeterminism roots: desc names it in witness chains, problem is the
// diagnostic for a use in modelled code (minus the waiver hint).
func intrinsicSource(fn *types.Func) (desc, problem string, ok bool) {
	if fn.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() != nil {
		return "", "", false // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch name := fn.Name(); fn.Pkg().Path() {
	case "time":
		if bannedTime[name] {
			desc = "time." + name
			return desc, "wall-clock " + desc + " in modelled code; use the virtual clock (sim.Engine.Now, Proc.Sleep)", true
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[name] {
			desc = "global rand." + name
			return desc, desc + " in modelled code; draw from a seeded rand.New(rand.NewSource(seed))", true
		}
	case "os":
		if envFuncs[name] {
			desc = "os." + name
			return desc, desc + " reads the process environment in modelled code: runs stop being a pure function of (config, seed); thread the value through the configuration", true
		}
	}
	return "", "", false
}

// chainHopLimit bounds witness chains: beyond this many hops the tail
// is elided, keeping diagnostics readable and facts small.
const chainHopLimit = 6

// composeChain builds "fn → rest", eliding long tails.
func composeChain(fnName, rest string) string {
	if strings.Count(rest, "→") >= chainHopLimit {
		if i := strings.LastIndex(rest, "→"); i >= 0 {
			rest = strings.TrimSpace(rest[:i]) + " → …"
		}
	}
	return fnName + " → " + rest
}

// funcDisplayName renders fn as "pkg.F" or "pkg.(*T).M" for chains and
// diagnostics.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, isPtr := rt.(*types.Pointer); isPtr {
			rt = p.Elem()
			ptr = "*"
		}
		if named, isNamed := rt.(*types.Named); isNamed {
			return pkg + "(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// nondetNode is one declared function during the facts computation.
type nondetNode struct {
	obj     *types.Func
	chain   string // non-empty once tainted
	callees []*types.Func
}

// computeNondetFacts runs on every package the driver sees (not just
// modelled ones — taint in host tooling is exactly what the reporting
// pass needs to know about). It computes the transitive "reaches a
// nondeterminism root" property for each declared function and exports
// a NondetFact on the tainted ones.
func computeNondetFacts(pass *analysis.Pass) error {
	w := collectWaivers(pass.Fset, pass.Files)
	var nodes []*nondetNode
	chainOf := make(map[*types.Func]*nondetNode)

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &nondetNode{obj: obj}
			self := funcDisplayName(obj)

			// Direct roots and call edges, in source order so the first
			// witness chain is deterministic. Function literals inside the
			// declaration are attributed to it: when the function runs,
			// the closure's effects are (conservatively) its effects.
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if desc, _, isRoot := intrinsicSource(fn); isRoot {
					if waived(pass, w, id.Pos()) {
						return true // sanitized at the source
					}
					if node.chain == "" {
						node.chain = composeChain(self, desc)
					}
					return true
				}
				if fn.Pkg() == pass.Pkg {
					node.callees = append(node.callees, fn)
					return true
				}
				var fact NondetFact
				if pass.ImportObjectFact(fn, &fact) {
					if waived(pass, w, id.Pos()) {
						return true
					}
					if node.chain == "" {
						node.chain = composeChain(self, fact.Chain)
					}
				}
				return true
			})

			// Order-dependent map iteration is a root too (maprange only
			// checks output scope; here every package counts).
			eachFuncBody(decl, func(body *ast.BlockStmt) {
				for _, p := range mapRangeProblemsIn(pass, body) {
					if waived(pass, w, p.pos) {
						continue
					}
					if node.chain == "" {
						node.chain = composeChain(self, "map iteration order")
					}
				}
			})

			nodes = append(nodes, node)
			chainOf[obj] = node
		}
	}

	// Propagate taint over same-package call edges to a fixed point.
	// Iteration is over the source-ordered slice, so the first chain a
	// function acquires is the same on every run.
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if n.chain != "" {
				continue
			}
			for _, callee := range n.callees {
				if cn := chainOf[callee]; cn != nil && cn.chain != "" {
					n.chain = composeChain(funcDisplayName(n.obj), cn.chain)
					changed = true
					break
				}
			}
		}
	}

	for _, n := range nodes {
		if n.chain != "" {
			if err := pass.ExportObjectFact(n.obj, &NondetFact{Chain: n.chain}); err != nil {
				return err
			}
		}
	}
	return nil
}

// runNondetFlow reports nondeterminism entering modelled scope.
func runNondetFlow(pass *analysis.Pass) error {
	if !inModelledScope(pass.Pkg.Path()) {
		return nil
	}
	w := collectWaivers(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		// Every use of a function identifier, whatever expression
		// surrounds it: a call, a parenthesized or instantiated callee, or
		// a value that is called later.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
				return true
			}
			if _, problem, isRoot := intrinsicSource(fn); isRoot {
				if !waived(pass, w, id.Pos()) {
					pass.Reportf(id.Pos(), "%s or waive with //imclint:deterministic -- reason", problem)
				}
				return true
			}
			if inModelledScope(fn.Pkg().Path()) {
				return true // the source is flagged in its own package
			}
			var fact NondetFact
			if pass.ImportObjectFact(fn, &fact) && !waived(pass, w, id.Pos()) {
				pass.Reportf(id.Pos(), "use of nondeterministic %s (%s): the helper launders nondeterminism into modelled code; make it deterministic, waive at its source, or waive this use with //imclint:deterministic -- reason", funcDisplayName(fn), fact.Chain)
			}
			return true
		})
	}
	return nil
}
