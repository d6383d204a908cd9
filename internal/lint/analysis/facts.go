package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sync"
)

// Fact is a typed datum an analyzer attaches to a types.Object so later
// passes — over the same package or over packages that import it — can
// query it. The semantics mirror golang.org/x/tools' go/analysis facts:
// a fact exported on an object is carried by the driver's FactStore and
// is visible wherever the object is. Fact implementations must be
// pointers to structs.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// ObjKey returns a key for obj that is stable across loads of the same
// package — whether the object came from parsed source or from compiler
// export data — so facts exported while analyzing a package can be
// found again by its importers. Only package-level functions, methods
// and package-level variables are addressable; everything else (locals,
// fields, builtins) returns ok=false and cannot carry facts.
func ObjKey(obj types.Object) (key string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		sig, _ := o.Type().(*types.Signature)
		if sig == nil {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			rt := recv.Type()
			ptr := ""
			if p, isPtr := rt.(*types.Pointer); isPtr {
				rt = p.Elem()
				ptr = "*"
			}
			named, isNamed := rt.(*types.Named)
			if !isNamed {
				return "", false
			}
			return "(" + ptr + named.Obj().Name() + ")." + o.Name(), true
		}
		return "func " + o.Name(), true
	case *types.Var:
		if o.Parent() != o.Pkg().Scope() {
			return "", false
		}
		return "var " + o.Name(), true
	}
	return "", false
}

// factKey addresses one (object, fact type) slot in the store.
type factKey struct {
	pkg string // package path
	obj string // ObjKey
	typ string // concrete fact type, e.g. "*lint.nondetFact"
}

// FactStore holds every fact exported during one analysis run, keyed by
// stable object paths so facts survive the source-object/export-data
// object split. One store is shared across all packages of a run.
type FactStore struct {
	mu sync.Mutex
	m  map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

func factTypeName(f Fact) string { return reflect.TypeOf(f).String() }

// export records fact for obj (resolved against pkgPath when the object
// belongs to the package under analysis).
func (s *FactStore) export(obj types.Object, fact Fact) error {
	key, ok := ObjKey(obj)
	if !ok {
		return fmt.Errorf("analysis: object %v cannot carry facts", obj)
	}
	if reflect.TypeOf(fact).Kind() != reflect.Ptr {
		return fmt.Errorf("analysis: fact %T must be a pointer type", fact)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[factKey{pkg: obj.Pkg().Path(), obj: key, typ: factTypeName(fact)}] = fact
	return nil
}

// lookup fills dst (a pointer to a concrete fact struct) with the fact
// of dst's type attached to obj, reporting whether one exists.
func (s *FactStore) lookup(obj types.Object, dst Fact) bool {
	key, ok := ObjKey(obj)
	if !ok {
		return false
	}
	s.mu.Lock()
	got, ok := s.m[factKey{pkg: obj.Pkg().Path(), obj: key, typ: factTypeName(dst)}]
	s.mu.Unlock()
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	gv := reflect.ValueOf(got)
	if dv.Type() != gv.Type() || dv.Kind() != reflect.Ptr {
		return false
	}
	dv.Elem().Set(gv.Elem())
	return true
}

// Bind wires a pass's fact hooks to this store. The driver calls it on
// every pass it constructs; analyzers then use Pass.ExportObjectFact /
// Pass.ImportObjectFact without knowing where facts live.
func (s *FactStore) Bind(p *Pass) {
	p.exportObjectFact = func(obj types.Object, f Fact) error { return s.export(obj, f) }
	p.importObjectFact = func(obj types.Object, f Fact) bool { return s.lookup(obj, f) }
}
