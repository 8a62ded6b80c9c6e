package schema

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindStr: "str", KindInt: "int", KindReal: "real", KindBool: "bool",
		KindSet: "S", KindList: "L", KindTuple: "T", KindRef: "ref",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q, want %q", uint8(k), k.String(), s)
		}
	}
	if !strings.HasPrefix(Kind(77).String(), "Kind(") {
		t.Error("invalid kind string")
	}
}

func TestKindAtomic(t *testing.T) {
	atomic := map[Kind]bool{
		KindStr: true, KindInt: true, KindReal: true, KindBool: true, KindRef: true,
		KindSet: false, KindList: false, KindTuple: false, KindInvalid: false,
	}
	for k, want := range atomic {
		if k.Atomic() != want {
			t.Errorf("%v.Atomic() = %v, want %v", k, k.Atomic(), want)
		}
	}
}

func TestTypeString(t *testing.T) {
	ty := Tuple(F("a", Str()), F("b", List(Set(Ref("lib")))))
	got := ty.String()
	want := "T{a:str, b:L(S(ref(lib)))}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	var nilT *Type
	if nilT.String() != "<nil>" {
		t.Error("nil type string")
	}
}

func TestTypeEqual(t *testing.T) {
	a := Tuple(F("x", Int()), F("y", Set(Str())))
	b := Tuple(F("x", Int()), F("y", Set(Str())))
	if !a.Equal(b) {
		t.Error("structurally equal types reported unequal")
	}
	c := Tuple(F("x", Int()), F("y", Set(Int())))
	if a.Equal(c) {
		t.Error("different element types reported equal")
	}
	d := Tuple(F("x", Int()))
	if a.Equal(d) {
		t.Error("different arity reported equal")
	}
	if a.Equal(nil) {
		t.Error("non-nil equal to nil")
	}
	if !Ref("r").Equal(Ref("r")) || Ref("r").Equal(Ref("q")) {
		t.Error("ref equality broken")
	}
}

func TestFieldLookup(t *testing.T) {
	ty := Tuple(F("a", Str()), F("b", Int()))
	if ty.Field("a") == nil || ty.Field("a").Kind != KindStr {
		t.Error("Field(a) wrong")
	}
	if ty.Field("zz") != nil {
		t.Error("Field(zz) should be nil")
	}
	if Str().Field("a") != nil {
		t.Error("Field on non-tuple should be nil")
	}
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog("db")
	r := &Relation{Name: "r", Segment: "s1", Key: "id", Type: Tuple(F("id", Str()))}
	if err := c.AddRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRelation(&Relation{Name: "r"}); err == nil {
		t.Error("duplicate relation accepted")
	}
	if err := c.AddRelation(&Relation{}); err == nil {
		t.Error("unnamed relation accepted")
	}
	if c.Relation("r") != r {
		t.Error("Relation lookup failed")
	}
	if c.Relation("nope") != nil {
		t.Error("unknown relation non-nil")
	}
	if len(c.Relations()) != 1 {
		t.Error("Relations() wrong length")
	}
	c.AddSegment("s1") // duplicate registration is a no-op
	if got := c.Segments(); len(got) != 1 || got[0] != "s1" {
		t.Errorf("Segments = %v", got)
	}
}

func TestValidateRejectsBadKeys(t *testing.T) {
	cases := []struct {
		name string
		rel  *Relation
	}{
		{"non-tuple type", &Relation{Name: "r", Segment: "s", Key: "id", Type: Str()}},
		{"missing key attr", &Relation{Name: "r", Segment: "s", Key: "id", Type: Tuple(F("x", Str()))}},
		{"non-atomic key", &Relation{Name: "r", Segment: "s", Key: "id", Type: Tuple(F("id", Set(Str())))}},
	}
	for _, tc := range cases {
		c := NewCatalog("db")
		if err := c.AddRelation(tc.rel); err != nil {
			t.Fatalf("%s: add: %v", tc.name, err)
		}
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid schema", tc.name)
		}
	}
}

func TestValidateRejectsRefKey(t *testing.T) {
	c := NewCatalog("db")
	_ = c.AddRelation(&Relation{Name: "lib", Segment: "s", Key: "id", Type: Tuple(F("id", Str()))})
	_ = c.AddRelation(&Relation{Name: "r", Segment: "s", Key: "id", Type: Tuple(F("id", Ref("lib")))})
	if err := c.Validate(); err == nil {
		t.Error("ref key accepted")
	}
}

func TestValidateRejectsDanglingRef(t *testing.T) {
	c := NewCatalog("db")
	_ = c.AddRelation(&Relation{
		Name: "r", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("parts", Set(Ref("nowhere")))),
	})
	if err := c.Validate(); err == nil {
		t.Error("dangling reference accepted")
	}
}

func TestValidateRejectsDuplicateFields(t *testing.T) {
	c := NewCatalog("db")
	_ = c.AddRelation(&Relation{
		Name: "r", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("id", Int())),
	})
	if err := c.Validate(); err == nil {
		t.Error("duplicate field accepted")
	}
}

func TestValidateRejectsRecursion(t *testing.T) {
	// a -> b -> a is a recursive complex-object structure, out of the
	// paper's scope; must be rejected.
	c := NewCatalog("db")
	_ = c.AddRelation(&Relation{
		Name: "a", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("sub", Set(Ref("b")))),
	})
	_ = c.AddRelation(&Relation{
		Name: "b", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("sub", Set(Ref("a")))),
	})
	err := c.Validate()
	if err == nil {
		t.Fatal("recursive schema accepted")
	}
	if !strings.Contains(err.Error(), "recursive") {
		t.Errorf("error does not mention recursion: %v", err)
	}
}

func TestValidateAcceptsSharedDAG(t *testing.T) {
	// Non-disjoint but acyclic: two relations referencing the same library.
	c := NewCatalog("db")
	_ = c.AddRelation(&Relation{Name: "lib", Segment: "s", Key: "id", Type: Tuple(F("id", Str()))})
	_ = c.AddRelation(&Relation{
		Name: "a", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("parts", Set(Ref("lib")))),
	})
	_ = c.AddRelation(&Relation{
		Name: "b", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("parts", List(Ref("lib")))),
	})
	if err := c.Validate(); err != nil {
		t.Fatalf("valid DAG schema rejected: %v", err)
	}
}

func TestValidateNestedCommonData(t *testing.T) {
	// "Common data may again contain common data" (§2): lib1 -> lib2.
	c := NewCatalog("db")
	_ = c.AddRelation(&Relation{Name: "lib2", Segment: "s", Key: "id", Type: Tuple(F("id", Str()))})
	_ = c.AddRelation(&Relation{
		Name: "lib1", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("sub", Set(Ref("lib2")))),
	})
	_ = c.AddRelation(&Relation{
		Name: "top", Segment: "s", Key: "id",
		Type: Tuple(F("id", Str()), F("parts", Set(Ref("lib1")))),
	})
	if err := c.Validate(); err != nil {
		t.Fatalf("nested common data rejected: %v", err)
	}
}

func TestRefTargets(t *testing.T) {
	r := &Relation{
		Name: "r", Segment: "s", Key: "id",
		Type: Tuple(
			F("id", Str()),
			F("a", Set(Ref("z"))),
			F("b", List(Tuple(F("c", Ref("y")), F("d", Ref("z"))))),
		),
	}
	got := r.RefTargets()
	if len(got) != 2 || got[0] != "y" || got[1] != "z" {
		t.Errorf("RefTargets = %v, want [y z]", got)
	}
}

func TestStatistics(t *testing.T) {
	s := NewStatistics()
	s.SetCard("cells", 100)
	s.SetCard("cells.robots", 5)
	if n, ok := s.Card("cells"); !ok || n != 100 {
		t.Errorf("Card(cells) = %v,%v", n, ok)
	}
	if _, ok := s.Card("nope"); ok {
		t.Error("unknown path reported present")
	}
	if s.CardOr("nope", 7) != 7 {
		t.Error("CardOr default broken")
	}
	if s.CardOr("cells", 7) != 100 {
		t.Error("CardOr recorded broken")
	}
	if s.Paths() != 2 {
		t.Errorf("Paths = %d", s.Paths())
	}
	var zero Statistics
	zero.SetCard("x", 1) // must not panic on zero value
	if zero.CardOr("x", 0) != 1 {
		t.Error("zero-value statistics broken")
	}
}

// TestPaperSchemaMatchesFigure1 pins the structure of Figure 1 exactly.
func TestPaperSchemaMatchesFigure1(t *testing.T) {
	c := PaperSchema()
	if c.Database != "db1" {
		t.Errorf("database = %q", c.Database)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("paper schema invalid: %v", err)
	}

	cells := c.Relation("cells")
	if cells == nil {
		t.Fatal("relation cells missing")
	}
	if cells.Segment != "seg1" || cells.Key != "cell_id" {
		t.Errorf("cells segment/key = %q/%q", cells.Segment, cells.Key)
	}
	wantCells := Tuple(
		F("cell_id", Str()),
		F("c_objects", Set(Tuple(F("obj_id", Int()), F("obj_name", Str())))),
		F("robots", List(Tuple(
			F("robot_id", Str()),
			F("trajectory", Str()),
			F("effectors", Set(Ref("effectors"))),
		))),
	)
	if !cells.Type.Equal(wantCells) {
		t.Errorf("cells type = %v\nwant %v", cells.Type, wantCells)
	}

	eff := c.Relation("effectors")
	if eff == nil {
		t.Fatal("relation effectors missing")
	}
	if eff.Segment != "seg2" || eff.Key != "eff_id" {
		t.Errorf("effectors segment/key = %q/%q", eff.Segment, eff.Key)
	}
	wantEff := Tuple(F("eff_id", Str()), F("tool", Str()))
	if !eff.Type.Equal(wantEff) {
		t.Errorf("effectors type = %v, want %v", eff.Type, wantEff)
	}

	if got := cells.RefTargets(); len(got) != 1 || got[0] != "effectors" {
		t.Errorf("cells references %v, want [effectors]", got)
	}
	if got := eff.RefTargets(); len(got) != 0 {
		t.Errorf("effectors references %v, want none", got)
	}
	if got := c.Segments(); len(got) != 2 {
		t.Errorf("segments = %v", got)
	}
}

// TestRefPlan: the plan lists exactly the hops that end in a reference, is
// stored on every type of a catalogued relation, and reads the same from a
// type no catalog has seen.
func TestRefPlan(t *testing.T) {
	cat := PaperSchema()
	if p := cat.Relation("effectors").Type.RefPlan(); p != nil {
		t.Errorf("effectors has a ref plan: %+v", p)
	}
	cells := cat.Relation("cells").Type
	p := cells.RefPlan()
	if p == nil || len(p.Fields) != 1 || p.Fields[0].Name != "robots" || p.Elem != nil {
		t.Fatalf("cells plan = %+v, want the single hop robots", p)
	}
	robot := p.Fields[0].Plan.Elem
	if robot == nil || len(robot.Fields) != 1 || robot.Fields[0].Name != "effectors" {
		t.Fatalf("robot plan = %+v, want the single hop effectors", robot)
	}
	if leaf := robot.Fields[0].Plan.Elem; leaf == nil || leaf.Fields != nil || leaf.Elem != nil {
		t.Errorf("effectors element plan = %+v, want a bare reference", leaf)
	}
	// Compiled once: the robot type hands out the plan the cell's plan links.
	if got := cells.Field("robots").Elem.RefPlan(); got != robot {
		t.Error("robot type's plan is not the one its parent's plan points at")
	}
	if cells.Field("c_objects").RefPlan() != nil || cells.Field("cell_id").RefPlan() != nil {
		t.Error("reference-free attributes have a plan")
	}
	// A type outside any catalog is walked on the spot.
	loose := Tuple(F("id", Str()), F("m", List(Tuple(F("r", Ref("x")), F("n", Int())))))
	lp := loose.RefPlan()
	if lp == nil || len(lp.Fields) != 1 || lp.Fields[0].Name != "m" ||
		len(lp.Fields[0].Plan.Elem.Fields) != 1 || lp.Fields[0].Plan.Elem.Fields[0].Name != "r" {
		t.Errorf("loose plan = %+v", lp)
	}
	var none *Type
	if none.RefPlan() != nil {
		t.Error("nil type has a plan")
	}
}
