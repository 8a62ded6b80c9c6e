package store

import (
	"sort"
	"strings"
	"testing"

	"colock/internal/schema"
)

func libCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	c := schema.NewCatalog("db")
	if err := c.AddRelation(&schema.Relation{
		Name: "lib", Segment: "s2", Key: "id",
		Type: schema.Tuple(schema.F("id", schema.Str()), schema.F("v", schema.Int())),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRelation(&schema.Relation{
		Name: "top", Segment: "s1", Key: "id",
		Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("name", schema.Str()),
			schema.F("parts", schema.Set(schema.Ref("lib"))),
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func libObj(id, name string, parts ...string) *Tuple {
	set := NewSet()
	for _, p := range parts {
		set.Add(p, Ref{"lib", p})
	}
	return NewTuple().Set("id", Str(id)).Set("name", Str(name)).Set("parts", set)
}

func TestInsertGetDelete(t *testing.T) {
	s := New(libCatalog(t))
	if err := s.Insert("lib", "p1", NewTuple().Set("id", Str("p1")).Set("v", Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("top", "a", libObj("a", "first", "p1")); err != nil {
		t.Fatal(err)
	}
	if s.Get("top", "a") == nil || s.Get("top", "zz") != nil {
		t.Error("Get")
	}
	if s.Count("top") != 1 || s.Count("lib") != 1 {
		t.Error("Count")
	}
	if keys := s.Keys("top"); len(keys) != 1 || keys[0] != "a" {
		t.Errorf("Keys = %v", keys)
	}
	if obj := s.Delete("top", "a"); obj == nil {
		t.Error("Delete returned nil")
	}
	if s.Get("top", "a") != nil {
		t.Error("object survived Delete")
	}
	if s.Delete("top", "a") != nil {
		t.Error("double Delete non-nil")
	}
}

func TestInsertErrors(t *testing.T) {
	s := New(libCatalog(t))
	if err := s.Insert("nope", "x", NewTuple()); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := s.Insert("lib", "p1", NewTuple().Set("id", Str("p1"))); err == nil {
		t.Error("non-conforming object accepted")
	}
	// Key attribute must match the insert key.
	obj := NewTuple().Set("id", Str("other")).Set("v", Int(0))
	if err := s.Insert("lib", "p1", obj); err == nil {
		t.Error("key mismatch accepted")
	}
	good := NewTuple().Set("id", Str("p1")).Set("v", Int(0))
	if err := s.Insert("lib", "p1", good); err != nil {
		t.Fatal(err)
	}
	dup := NewTuple().Set("id", Str("p1")).Set("v", Int(9))
	if err := s.Insert("lib", "p1", dup); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestLookupPaths(t *testing.T) {
	s := PaperDatabase()
	cases := []struct {
		path string
		want string
	}{
		{"cells/c1/cell_id", `"c1"`},
		{"cells/c1/robots/r1/trajectory", `"tr1"`},
		{"cells/c1/robots/r1/effectors/e2", "->effectors/e2"},
		{"cells/c1/c_objects/o1/obj_id", "1"},
		{"effectors/e3/tool", `"t3"`},
	}
	for _, c := range cases {
		v, err := s.Lookup(ParsePath(c.path))
		if err != nil {
			t.Errorf("Lookup(%s): %v", c.path, err)
			continue
		}
		if v.String() != c.want {
			t.Errorf("Lookup(%s) = %s, want %s", c.path, v, c.want)
		}
	}

	bad := []string{
		"",                       // empty
		"cells",                  // relation only
		"nope/x",                 // unknown relation
		"cells/zz",               // unknown key
		"cells/c1/nope",          // unknown field
		"cells/c1/robots/zz",     // unknown element
		"cells/c1/cell_id/deep",  // descend into atomic
		"cells/c1/robots/r1/zzz", // unknown robot field
	}
	for _, p := range bad {
		if _, err := s.Lookup(ParsePath(p)); err == nil {
			t.Errorf("Lookup(%q) succeeded", p)
		}
	}
}

func TestSetAtomic(t *testing.T) {
	s := PaperDatabase()
	p := ParsePath("cells/c1/robots/r1/trajectory")
	old, err := s.SetAtomic(p, Str("tr1-new"))
	if err != nil {
		t.Fatal(err)
	}
	if old != Str("tr1") {
		t.Errorf("old = %v", old)
	}
	v, _ := s.Lookup(p)
	if v != Str("tr1-new") {
		t.Errorf("after update = %v", v)
	}
	// Undo using the returned old value.
	if _, err := s.SetAtomic(p, old); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Lookup(p)
	if v != Str("tr1") {
		t.Error("undo failed")
	}

	if _, err := s.SetAtomic(ParsePath("cells/c1"), Str("x")); err == nil {
		t.Error("short path accepted")
	}
	if _, err := s.SetAtomic(p, NewSet()); err == nil {
		t.Error("non-atomic value accepted")
	}
	if _, err := s.SetAtomic(p, Int(3)); err == nil {
		t.Error("kind change accepted")
	}
	if _, err := s.SetAtomic(ParsePath("cells/c1/robots/zz/trajectory"), Str("x")); err == nil {
		t.Error("bad parent accepted")
	}
	// Replacing a ref element inside a set (set parent).
	rp := ParsePath("cells/c1/robots/r1/effectors/e1")
	oldRef, err := s.SetAtomic(rp, Ref{"effectors", "e1"})
	if err != nil {
		t.Fatal(err)
	}
	if oldRef != (Ref{"effectors", "e1"}) {
		t.Errorf("old ref = %v", oldRef)
	}
	// Elements are type-checked too: the schema says where references can
	// be, and the lock protocol takes its word.
	if _, err := s.SetAtomic(rp, Str("e1")); err == nil {
		t.Error("string accepted as element of a set of references")
	}
	if _, err := s.SetAtomic(rp, Ref{"cells", "c1"}); err == nil {
		t.Error("reference to the wrong relation accepted")
	}
	if _, err := s.SetAtomic(p, Ref{"effectors", "e1"}); err == nil {
		t.Error("reference accepted in a string attribute")
	}
}

func TestAddRemoveElem(t *testing.T) {
	s := PaperDatabase()
	coll := ParsePath("cells/c1/robots/r1/effectors")
	if err := s.AddElem(coll, "e3", Ref{"effectors", "e3"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddElem(coll, "e3", Ref{"effectors", "e3"}); err == nil {
		t.Error("duplicate element accepted")
	}
	v, err := s.RemoveElem(coll, "e3")
	if err != nil || v != (Ref{"effectors", "e3"}) {
		t.Errorf("RemoveElem = %v, %v", v, err)
	}
	if v, _ := s.RemoveElem(coll, "zz"); v != nil {
		t.Error("remove absent non-nil")
	}
	if err := s.AddElem(ParsePath("cells/c1/cell_id"), "x", Int(1)); err == nil {
		t.Error("AddElem on atomic accepted")
	}
	if err := s.AddElem(coll, "x", Str("e3")); err == nil {
		t.Error("string accepted into a set of references")
	}
	if err := s.AddElem(ParsePath("cells/c1/c_objects"), "o9", Ref{"effectors", "e3"}); err == nil {
		t.Error("reference accepted into a set of tuples")
	}
	if _, err := s.RemoveElem(ParsePath("cells/c1/cell_id"), "x"); err == nil {
		t.Error("RemoveElem on atomic accepted")
	}
	// List collection.
	robots := ParsePath("cells/c1/robots")
	r3 := NewTuple().Set("robot_id", Str("r3")).Set("trajectory", Str("t")).Set("effectors", NewSet())
	if err := s.AddElem(robots, "r3", r3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveElem(robots, "r3"); err != nil {
		t.Fatal(err)
	}
}

func TestResolveAndIntegrity(t *testing.T) {
	s := PaperDatabase()
	if s.Resolve(Ref{"effectors", "e2"}) == nil {
		t.Error("Resolve failed")
	}
	if s.Resolve(Ref{"effectors", "zz"}) != nil {
		t.Error("Resolve of absent non-nil")
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	s.Delete("effectors", "e2") // now r1 and r2 dangle
	err := s.CheckIntegrity()
	if err == nil {
		t.Fatal("dangling reference not detected")
	}
	if !strings.Contains(err.Error(), "e2") {
		t.Errorf("error does not name the target: %v", err)
	}
}

func TestBackRefs(t *testing.T) {
	s := PaperDatabase()
	s.ResetScanCount()
	refs := s.BackRefs("effectors", "e2")
	if len(refs) != 2 {
		t.Fatalf("e2 referenced %d times, want 2: %v", len(refs), refs)
	}
	paths := []string{refs[0].RefPath.String(), refs[1].RefPath.String()}
	want := map[string]bool{
		"cells/c1/robots/r1/effectors/e2": true,
		"cells/c1/robots/r2/effectors/e2": true,
	}
	for _, p := range paths {
		if !want[p] {
			t.Errorf("unexpected backref %q", p)
		}
	}
	if s.ScanCount() == 0 {
		t.Error("reverse scan cost not recorded")
	}
	if got := s.BackRefs("effectors", "e1"); len(got) != 1 {
		t.Errorf("e1 referenced %d times, want 1", len(got))
	}
	if got := s.BackRefs("effectors", "zz"); len(got) != 0 {
		t.Errorf("absent target referenced %d times", len(got))
	}
}

func TestRefs(t *testing.T) {
	s := PaperDatabase()
	refs, err := s.Refs(ParsePath("cells/c1/robots/r1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("r1 has %d refs, want 2", len(refs))
	}
	if refs[0].Target.Key != "e1" || refs[1].Target.Key != "e2" {
		t.Errorf("refs = %v", refs)
	}
	refs, err = s.Refs(ParsePath("cells/c1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 4 {
		t.Errorf("c1 has %d refs, want 4", len(refs))
	}
	// A subtree without refs.
	refs, err = s.Refs(ParsePath("cells/c1/c_objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Errorf("c_objects has refs: %v", refs)
	}
	if _, err := s.Refs(ParsePath("cells/zz")); err == nil {
		t.Error("Refs on bad path succeeded")
	}
}

// TestRefTargets: the plan-driven collector returns the targets Refs finds,
// without the paths, and looks at nothing the plan does not name.
func TestRefTargets(t *testing.T) {
	s := PaperDatabase()
	cells := s.Catalog().Relation("cells").Type
	robot := cells.Field("robots").Elem
	keys := func(rs []Ref) string {
		var ks []string
		for _, r := range rs {
			ks = append(ks, r.Relation+"/"+r.Key)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	if got := keys(s.RefTargets(ParsePath("cells/c1/robots/r1"), robot.RefPlan(), nil)); got != "effectors/e1 effectors/e2" {
		t.Errorf("r1: %q", got)
	}
	if got := keys(s.RefTargets(ParsePath("cells/c1"), cells.RefPlan(), nil)); got != "effectors/e1 effectors/e2 effectors/e2 effectors/e3" {
		t.Errorf("c1: %q", got)
	}
	if got := keys(s.RefTargets(ParsePath("cells"), cells.RefPlan(), nil)); got != "effectors/e1 effectors/e2 effectors/e2 effectors/e3" {
		t.Errorf("relation cells: %q", got)
	}
	// No plan (reference-free type), no instance, unknown relation: buf
	// comes back as it went in.
	buf := []Ref{{"x", "y"}}
	if plan := cells.Field("c_objects").RefPlan(); plan != nil {
		t.Errorf("c_objects has a ref plan: %+v", plan)
	}
	for _, p := range []string{"cells/c1/c_objects", "cells/zz", "cells/c1/robots/zz", "nope", "nope/k"} {
		if got := s.RefTargets(ParsePath(p), cells.RefPlan(), buf); len(got) != 1 {
			t.Errorf("%s: %v", p, got)
		}
	}
	if got := s.RefTargets(ParsePath("cells/c1"), nil, buf); len(got) != 1 {
		t.Errorf("nil plan: %v", got)
	}
}

func TestPaperDatabaseShape(t *testing.T) {
	s := PaperDatabase()
	if s.Count("cells") != 1 || s.Count("effectors") != 3 {
		t.Errorf("counts: cells=%d effectors=%d", s.Count("cells"), s.Count("effectors"))
	}
	robots, err := s.Lookup(ParsePath("cells/c1/robots"))
	if err != nil {
		t.Fatal(err)
	}
	l := robots.(*List)
	if ids := l.IDs(); len(ids) != 2 || ids[0] != "r1" || ids[1] != "r2" {
		t.Errorf("robots = %v (must be ordered r1, r2)", ids)
	}
	// r1 -> {e1, e2}, r2 -> {e2, e3} per Figures 6/7.
	effs1, _ := s.Lookup(ParsePath("cells/c1/robots/r1/effectors"))
	if ids := effs1.(*Set).IDs(); len(ids) != 2 || ids[0] != "e1" || ids[1] != "e2" {
		t.Errorf("r1 effectors = %v", ids)
	}
	effs2, _ := s.Lookup(ParsePath("cells/c1/robots/r2/effectors"))
	if ids := effs2.(*Set).IDs(); len(ids) != 2 || ids[0] != "e2" || ids[1] != "e3" {
		t.Errorf("r2 effectors = %v", ids)
	}
}
