// Fixture for nondetflow's wall-clock and global-rand roots ("hpc"
// segment puts it in modelled scope).
package walltime

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func wallClock() time.Time {
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
	t := time.Now()              // want `wall-clock time\.Now`
	_ = time.Since(t)            // want `wall-clock time\.Since`
	return t
}

func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `global rand\.Shuffle`
	return rand.Intn(4)                // want `global rand\.Intn`
}

// callForms reach the roots through callees that are not a plain
// pkg.F selector.
func callForms() int {
	_ = (time.Now)()      // want `wall-clock time\.Now in modelled code`
	a := (rand.Intn)(4)   // want `global rand\.Intn in modelled code`
	b := randv2.N[int](4) // want `global rand\.N in modelled code`
	return a + b
}

// seededRand is the approved pattern: an explicit source, methods on it.
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// pureTime constructs and converts times without reading the clock.
func pureTime() time.Duration {
	d := 5 * time.Second
	return time.Duration(d.Seconds())
}

func waivedNow() time.Time {
	//imclint:deterministic -- fixture: harness-side measurement, never feeds modelled state
	return time.Now()
}

func waivedSameLine() time.Time {
	return time.Now() //imclint:deterministic -- fixture: trailing waivers also attach
}
