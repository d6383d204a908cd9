package lint_test

import (
	"testing"

	"github.com/imcstudy/imcstudy/internal/lint"
	"github.com/imcstudy/imcstudy/internal/lint/analysistest"
)

// Each analyzer is exercised against positive, negative and waiver
// fixtures; plainpkg proves the modelled-scope gate (its code would
// trip every analyzer if the package were in scope).

func TestMapRange(t *testing.T) {
	analysistest.Run(t, lint.MapRange, "staging/maprange", "plainpkg")
}

// TestWallTime covers nondetflow's stdlib roots: wall clock and global
// rand, in every call form and as values.
func TestWallTime(t *testing.T) {
	analysistest.Run(t, lint.NondetFlow, "hpc/walltime", "plainpkg")
}

// TestEventOrder: scheduling engine work inside a map range is one case
// of maprange's order-dependent body, reported at the range header.
func TestEventOrder(t *testing.T) {
	analysistest.Run(t, lint.MapRange, "sim/eventorder", "plainpkg")
}

func TestMetricsNil(t *testing.T) {
	analysistest.Run(t, lint.NilGuard, "metricsuser")
}

func TestProfNil(t *testing.T) {
	analysistest.Run(t, lint.NilGuard, "profuser")
}

// TestNondetFlow is the cross-package laundering scenario: helperutil
// (out of modelled scope) wraps the clock, the environment and map
// iteration; the staging fixture imports it. The dependency is listed
// first so its facts exist when the modelled package is analyzed —
// exactly how the real drivers order packages.
func TestNondetFlow(t *testing.T) {
	analysistest.Run(t, lint.NondetFlow, "helperutil", "staging/nondetflow", "plainpkg")
}

func TestSharedMut(t *testing.T) {
	analysistest.Run(t, lint.SharedMut, "chaos/sharedmut")
}

// TestStaleWaiver runs the whole suite over the fixture — a directive
// is only provably stale once every analyzer that could consume it has
// run, which is also why StaleWaiver sits last in Analyzers().
func TestStaleWaiver(t *testing.T) {
	analysistest.RunSuite(t, lint.Analyzers(), "staging/stalewaiver")
}
