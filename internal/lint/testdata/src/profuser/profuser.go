// Fixture for nilguard's prof row; the analyzer applies everywhere
// outside internal/prof itself.
package profuser

import "github.com/imcstudy/imcstudy/internal/prof"

// harness holds a profiler the approved way: a pointer from prof.New,
// nil when profiling is off.
type harness struct {
	profiler *prof.Profiler
	last     prof.Profile // want `value-typed prof\.Profile field`
}

func good() *harness {
	return &harness{profiler: prof.New(prof.Options{Label: "fixture"})}
}

func bad() {
	p := &prof.Profiler{} // want `prof\.Profiler constructed directly`
	_ = p
	q := new(prof.Profile) // want `new\(prof\.Profile\) bypasses the prof accessors`
	_ = q
	var v prof.Profiler // want `value-typed prof\.Profiler variable`
	_ = v
}

func waivedLiteral() *prof.Profile {
	//imclint:deterministic -- fixture: hand-built document for an encoder test, never decoded
	return &prof.Profile{Schema: "imcprof/1"}
}
