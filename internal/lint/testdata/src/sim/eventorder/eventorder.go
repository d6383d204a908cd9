// Fixture for maprange's event-ordering case ("sim" segment puts it in
// modelled scope): scheduling or releasing engine work while ranging
// over a map turns map order into event order. It imports the real
// engine so receiver types resolve exactly as they do in the tree.
package eventorder

import (
	"sort"

	"github.com/imcstudy/imcstudy/internal/sim"
)

func fireAll(m map[string]*sim.Event) {
	for _, ev := range m { // want `order-dependent body \(call with side effects\)`
		ev.Fire(nil)
	}
}

func releaseAll(m map[string]*sim.Resource) {
	for _, r := range m { // want `order-dependent body \(call with side effects\)`
		r.Release(1)
	}
}

func spawnPerKey(e *sim.Engine, m map[string]int) {
	for name := range m { // want `order-dependent body \(call with side effects\)`
		e.Spawn(name, func(p *sim.Proc) error { return nil })
	}
}

// fireSorted is the approved shape: snapshot the keys, sort, then fire.
func fireSorted(m map[string]*sim.Event) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m[k].Fire(nil)
	}
}

// readOnly calls only a query method, but the classifier cannot tell a
// query from a side effect, so the loop still needs sorted keys or a
// waiver.
func readOnly(m map[string]*sim.Resource) int64 {
	var used int64
	for _, r := range m { // want `order-dependent body \(call in assignment value\)`
		used += r.Used()
	}
	return used
}

func waivedFire(m map[string]*sim.Event) {
	//imclint:deterministic -- fixture: map holds at most one element by construction
	for _, ev := range m {
		ev.Fire(nil)
	}
}
