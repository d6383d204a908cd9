package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// factsFixtureSrc declares one object of every fact-addressable kind.
const factsFixtureSrc = `package p

type T struct{}

func (t T) M()   {}
func (t *T) PM() {}

func F()    {}
var V int
`

type testFact struct{ Payload string }

func (*testFact) AFact() {}

func checkFixture(t *testing.T) *types.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", factsFixtureSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{}).Check("example.com/p", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func methodOf(t *testing.T, pkg *types.Package, recvPtr bool, name string) types.Object {
	t.Helper()
	tn := pkg.Scope().Lookup("T").(*types.TypeName)
	typ := types.Type(tn.Type())
	if recvPtr {
		typ = types.NewPointer(typ)
	}
	ms := types.NewMethodSet(typ)
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); m.Name() == name {
			return m
		}
	}
	t.Fatalf("method %s not found", name)
	return nil
}

// TestObjKeyForms pins the stable key format: the same object loaded
// from source and from export data must map to the same key, or facts
// exported while analyzing a package would be invisible to importers.
func TestObjKeyForms(t *testing.T) {
	pkg := checkFixture(t)
	cases := []struct {
		obj  types.Object
		want string
	}{
		{pkg.Scope().Lookup("F"), "func F"},
		{pkg.Scope().Lookup("V"), "var V"},
		{methodOf(t, pkg, false, "M"), "(T).M"},
		{methodOf(t, pkg, true, "PM"), "(*T).PM"},
	}
	for _, c := range cases {
		key, ok := ObjKey(c.obj)
		if !ok || key != c.want {
			t.Errorf("ObjKey(%v) = %q, %v; want %q, true", c.obj, key, ok, c.want)
		}
	}
	if _, ok := ObjKey(nil); ok {
		t.Error("ObjKey(nil) should not be addressable")
	}
}

// TestNilHooks: a Pass constructed by a fact-less driver must stay
// runnable — exports vanish, imports miss.
func TestNilHooks(t *testing.T) {
	pkg := checkFixture(t)
	pass := &Pass{Analyzer: &Analyzer{Name: "test"}}
	if err := pass.ExportObjectFact(pkg.Scope().Lookup("F"), &testFact{Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	var got testFact
	if pass.ImportObjectFact(pkg.Scope().Lookup("F"), &got) {
		t.Fatal("nil-hook pass returned a fact")
	}
}
