// Package helperutil is the non-modelled half of the nondetflow
// fixture: innocent-looking host helpers a modelled package might
// import. The package path has no modelled segment, so no analyzer
// reports inside it — exactly the laundering hole the facts pass
// closes. No `// want` comments here: taint
// is computed for this package but reported only at modelled call
// sites.
package helperutil

import "time"

// WrapNow launders the wall clock behind one helper call.
func WrapNow() int64 { return time.Now().UnixNano() }

// Stamp reaches the clock through a second hop, proving the taint is
// transitive within the package.
func Stamp() string { return tag() }

func tag() string { return time.Now().Format(time.RFC3339) }

// SeedFromClock is sanitized: the reasoned waiver at the source kills
// the taint, so modelled callers are clean without their own waivers.
func SeedFromClock() int64 {
	//imclint:deterministic -- fixture: stand-in for a reviewed wrapper whose value never reaches modelled state
	return time.Now().UnixNano()
}

// Pick is tainted by map iteration order rather than the clock.
func Pick(m map[string]int) string {
	out := ""
	for k := range m {
		out += k
	}
	return out
}

// Add is deterministic; modelled code may call it freely.
func Add(a, b int) int { return a + b }
