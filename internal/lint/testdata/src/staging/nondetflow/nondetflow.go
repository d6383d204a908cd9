// Package nondetflow is the modelled-scope half of the laundering
// fixture ("staging" puts it in modelled scope): it imports helperutil
// and demonstrates every reporting rule of the facts-based analyzer —
// tainted helper calls, witness chains, sanitized wrappers, value
// escapes of the clock, and direct environment reads.
package nondetflow

import (
	"os"
	"time"

	"helperutil"
)

var sink any

func usesWrappedClock() {
	sink = helperutil.WrapNow() // want `use of nondeterministic helperutil\.WrapNow \(helperutil\.WrapNow → time\.Now\)`
}

func usesChain() {
	sink = helperutil.Stamp() // want `helperutil\.Stamp → helperutil\.tag → time\.Now`
}

func usesMapOrder(m map[string]int) {
	sink = helperutil.Pick(m) // want `helperutil\.Pick → map iteration order`
}

func usesSanitized() {
	sink = helperutil.SeedFromClock() // clean: waived at the source
}

func usesClean() {
	sink = helperutil.Add(1, 2) // clean: no taint to import
}

func waivedUse() {
	//imclint:deterministic -- fixture: boot-time log label only, never feeds the engine
	sink = helperutil.WrapNow()
}

func escapesClock() {
	f := time.Now // want `wall-clock time\.Now in modelled code`
	sink = f
}

func readsEnv() {
	sink = os.Getenv("IMC_FIXTURE") // want `os\.Getenv reads the process environment`
}
