// Package schema implements the data-definition side of an extended NF²
// (Non-First-Normal-Form) data model with a reference concept, the data
// model the paper (Herrmann et al., EDBT 1990, §1-§2) bases its lock
// technique on: attribute values may be atomic, table-valued (a set or a
// list — "homogeneously structured"), tuple-valued ("heterogeneously
// structured"), or references to common data in another relation.
//
// The package provides the type constructors, relation and catalog
// definitions, schema validation (including the paper's assumptions:
// references always target whole complex objects of a relation, and complex
// objects are non-recursive), and the concrete schema of the paper's
// Figure 1 (relations "cells" and "effectors").
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the structure of a Type.
type Kind uint8

const (
	// KindInvalid is the zero Kind.
	KindInvalid Kind = iota
	// KindStr is an atomic string attribute.
	KindStr
	// KindInt is an atomic integer attribute.
	KindInt
	// KindReal is an atomic floating-point attribute.
	KindReal
	// KindBool is an atomic boolean attribute.
	KindBool
	// KindSet is an unordered collection of elements of one type.
	KindSet
	// KindList is an ordered collection of elements of one type.
	KindList
	// KindTuple is a (complex) tuple with named, heterogeneous fields.
	KindTuple
	// KindRef is a reference to a complex object of another relation
	// ("common data", §2). References make complex objects non-disjoint.
	KindRef
)

// String returns the schema notation used in the paper's figures: str, int,
// real, bool, S (set), L (list), T (tuple), ref.
func (k Kind) String() string {
	switch k {
	case KindStr:
		return "str"
	case KindInt:
		return "int"
	case KindReal:
		return "real"
	case KindBool:
		return "bool"
	case KindSet:
		return "S"
	case KindList:
		return "L"
	case KindTuple:
		return "T"
	case KindRef:
		return "ref"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Atomic reports whether k is an atomic data type (leaf of a schema tree).
// References count as atomic: the paper treats them as leaves of the
// referencing object's structure ("ref" leaves in Figure 1).
func (k Kind) Atomic() bool {
	switch k {
	case KindStr, KindInt, KindReal, KindBool, KindRef:
		return true
	}
	return false
}

// Field is one named attribute of a tuple type.
type Field struct {
	Name string
	Type *Type
}

// Type is a node of a schema tree.
type Type struct {
	Kind   Kind
	Elem   *Type   // element type for Set and List
	Fields []Field // attributes for Tuple
	Target string  // referenced relation for Ref

	// plan is the type's ref plan, compiled when a relation built on the
	// type enters a catalog (planned marks it done); see RefPlan.
	plan    *RefPlan
	planned bool
}

// RefPlan is rules 3/4's downward scan (§4.4.2.1) compiled from one type: the
// hops that lead from a value of the type to every reference BLU below it —
// the places where the object-specific lock graph (Figure 5) has a dashed
// edge. A type with no reference below it has no plan (nil), so the protocol
// can grant S or X on such a node without looking at the stored value at all.
// A plan with neither Fields nor Elem stands for a reference BLU itself.
type RefPlan struct {
	// Fields lists a tuple's attributes that have a plan of their own.
	Fields []PlanField
	// Elem is the plan of every element of a set or list.
	Elem *RefPlan
}

// PlanField is one tuple attribute on the way to a reference.
type PlanField struct {
	Name string
	Plan *RefPlan
}

// RefPlan returns the type's ref plan, nil when no reference BLU lies at or
// below it. A type in a catalog answers from the plan AddRelation compiled;
// any other type is walked on the spot.
func (t *Type) RefPlan() *RefPlan {
	if t == nil {
		return nil
	}
	if t.planned {
		return t.plan
	}
	switch t.Kind {
	case KindRef:
		return &RefPlan{}
	case KindSet, KindList:
		if e := t.Elem.RefPlan(); e != nil {
			return &RefPlan{Elem: e}
		}
	case KindTuple:
		var fields []PlanField
		for _, f := range t.Fields {
			if fp := f.Type.RefPlan(); fp != nil {
				fields = append(fields, PlanField{Name: f.Name, Plan: fp})
			}
		}
		if fields != nil {
			return &RefPlan{Fields: fields}
		}
	}
	return nil
}

// compilePlans stores the ref plan on every type of the tree, leaves first,
// so that each plan is built from its children's stored plans. Types already
// planned (shared with a relation added earlier) are left alone: nothing is
// written to a type another goroutine may be reading.
func (t *Type) compilePlans() {
	if t == nil || t.planned {
		return
	}
	t.Elem.compilePlans()
	for _, f := range t.Fields {
		f.Type.compilePlans()
	}
	t.plan, t.planned = t.RefPlan(), true
}

// Convenience constructors mirroring the paper's notation.

// Str returns an atomic string type.
func Str() *Type { return &Type{Kind: KindStr} }

// Int returns an atomic integer type.
func Int() *Type { return &Type{Kind: KindInt} }

// Real returns an atomic floating-point type.
func Real() *Type { return &Type{Kind: KindReal} }

// Bool returns an atomic boolean type.
func Bool() *Type { return &Type{Kind: KindBool} }

// Set returns a set type with the given element type.
func Set(elem *Type) *Type { return &Type{Kind: KindSet, Elem: elem} }

// List returns a list type with the given element type.
func List(elem *Type) *Type { return &Type{Kind: KindList, Elem: elem} }

// Tuple returns a (complex) tuple type with the given fields.
func Tuple(fields ...Field) *Type { return &Type{Kind: KindTuple, Fields: fields} }

// Ref returns a reference type targeting the named relation's complex
// objects.
func Ref(target string) *Type { return &Type{Kind: KindRef, Target: target} }

// F builds a Field.
func F(name string, t *Type) Field { return Field{Name: name, Type: t} }

// Field returns the tuple field with the given name, or nil.
func (t *Type) Field(name string) *Type {
	if t == nil || t.Kind != KindTuple {
		return nil
	}
	for _, f := range t.Fields {
		if f.Name == name {
			return f.Type
		}
	}
	return nil
}

// String renders the type in a compact schema notation, e.g.
// T{cell_id:str, robots:L(T{robot_id:str})}.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KindSet, KindList:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Elem)
	case KindTuple:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.Name + ":" + f.Type.String()
		}
		return "T{" + strings.Join(parts, ", ") + "}"
	case KindRef:
		return "ref(" + t.Target + ")"
	default:
		return t.Kind.String()
	}
}

// Equal reports structural equality of two types.
func (t *Type) Equal(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind || t.Target != o.Target {
		return false
	}
	if (t.Elem == nil) != (o.Elem == nil) || (t.Elem != nil && !t.Elem.Equal(o.Elem)) {
		return false
	}
	if len(t.Fields) != len(o.Fields) {
		return false
	}
	for i := range t.Fields {
		if t.Fields[i].Name != o.Fields[i].Name || !t.Fields[i].Type.Equal(o.Fields[i].Type) {
			return false
		}
	}
	return true
}

// Relation describes one relation of complex objects.
type Relation struct {
	// Name is the relation name, unique within the catalog.
	Name string
	// Segment is the storage segment the relation lives in (a lockable unit
	// in the System R hierarchy).
	Segment string
	// Key names the top-level atomic attribute that identifies a complex
	// object (the paper marks these with the suffix "_id").
	Key string
	// Type is the tuple type of the relation's complex objects.
	Type *Type
}

// Catalog is the schema catalog of one database: its segments and relations,
// plus the statistics the lock-request planner feeds on.
type Catalog struct {
	// Database is the database name (root of every lock hierarchy).
	Database string

	segments  []string
	relations map[string]*Relation
	relOrder  []string
	recursive bool

	stats Statistics
}

// SetRecursive opts the catalog into recursive complex objects: relations
// whose reference graph contains cycles (bill-of-material structures). The
// paper restricts itself to non-recursive objects and names the recursive
// extension as future work (§5); this implementation supports them — the
// protocol's propagation and the unit analysis are cycle-safe — so Validate
// only rejects cycles when recursion was not requested.
func (c *Catalog) SetRecursive(on bool) { c.recursive = on }

// Recursive reports whether the catalog permits reference cycles.
func (c *Catalog) Recursive() bool { return c.recursive }

// NewCatalog returns an empty catalog for the named database.
func NewCatalog(database string) *Catalog {
	return &Catalog{
		Database:  database,
		relations: make(map[string]*Relation),
		stats:     NewStatistics(),
	}
}

// AddSegment registers a storage segment.
func (c *Catalog) AddSegment(name string) {
	for _, s := range c.segments {
		if s == name {
			return
		}
	}
	c.segments = append(c.segments, name)
}

// Segments returns the registered segments in registration order.
func (c *Catalog) Segments() []string {
	out := make([]string, len(c.segments))
	copy(out, c.segments)
	return out
}

// AddRelation registers a relation; its segment is registered implicitly.
// The relation's type tree must not change afterwards: its ref plans are
// compiled here, and the lock protocol's name cache relies on the same
// immutability.
func (c *Catalog) AddRelation(r *Relation) error {
	if r == nil || r.Name == "" {
		return fmt.Errorf("schema: relation must have a name")
	}
	if _, dup := c.relations[r.Name]; dup {
		return fmt.Errorf("schema: duplicate relation %q", r.Name)
	}
	r.Type.compilePlans()
	c.AddSegment(r.Segment)
	c.relations[r.Name] = r
	c.relOrder = append(c.relOrder, r.Name)
	return nil
}

// Relation returns the named relation, or nil.
func (c *Catalog) Relation(name string) *Relation { return c.relations[name] }

// Relations returns all relations in registration order.
func (c *Catalog) Relations() []*Relation {
	out := make([]*Relation, 0, len(c.relOrder))
	for _, n := range c.relOrder {
		out = append(out, c.relations[n])
	}
	return out
}

// Stats returns the catalog's mutable statistics store.
func (c *Catalog) Stats() *Statistics { return &c.stats }

// Validate checks the paper's structural assumptions:
//
//   - every relation type is a tuple with a declared atomic, non-ref key
//     attribute at the top level;
//   - field names inside each tuple are unique;
//   - every reference targets an existing relation (common data is always a
//     whole complex object of a relation, §2);
//   - the reference graph between relations is acyclic (complex objects are
//     non-recursive, the only class the paper treats in detail).
func (c *Catalog) Validate() error {
	for _, name := range c.relOrder {
		r := c.relations[name]
		if r.Type == nil || r.Type.Kind != KindTuple {
			return fmt.Errorf("schema: relation %q: type must be a tuple, got %v", name, r.Type)
		}
		kt := r.Type.Field(r.Key)
		if kt == nil {
			return fmt.Errorf("schema: relation %q: key attribute %q not found", name, r.Key)
		}
		if !kt.Kind.Atomic() || kt.Kind == KindRef {
			return fmt.Errorf("schema: relation %q: key attribute %q must be atomic non-ref, got %v", name, r.Key, kt.Kind)
		}
		if err := c.validateType(name, r.Type); err != nil {
			return err
		}
	}
	if c.recursive {
		return nil
	}
	return c.checkNonRecursive()
}

func (c *Catalog) validateType(rel string, t *Type) error {
	switch t.Kind {
	case KindStr, KindInt, KindReal, KindBool:
		return nil
	case KindRef:
		if _, ok := c.relations[t.Target]; !ok {
			return fmt.Errorf("schema: relation %q: reference to unknown relation %q", rel, t.Target)
		}
		return nil
	case KindSet, KindList:
		if t.Elem == nil {
			return fmt.Errorf("schema: relation %q: %v without element type", rel, t.Kind)
		}
		return c.validateType(rel, t.Elem)
	case KindTuple:
		seen := make(map[string]bool, len(t.Fields))
		for _, f := range t.Fields {
			if f.Name == "" {
				return fmt.Errorf("schema: relation %q: tuple field without name", rel)
			}
			if seen[f.Name] {
				return fmt.Errorf("schema: relation %q: duplicate field %q", rel, f.Name)
			}
			seen[f.Name] = true
			if f.Type == nil {
				return fmt.Errorf("schema: relation %q: field %q without type", rel, f.Name)
			}
			if err := c.validateType(rel, f.Type); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("schema: relation %q: invalid type kind %v", rel, t.Kind)
}

// refTargets returns the distinct relations referenced from within t.
func refTargets(t *Type, out map[string]bool) {
	if t == nil {
		return
	}
	switch t.Kind {
	case KindRef:
		out[t.Target] = true
	case KindSet, KindList:
		refTargets(t.Elem, out)
	case KindTuple:
		for _, f := range t.Fields {
			refTargets(f.Type, out)
		}
	}
}

// RefTargets returns the sorted names of relations referenced by r.
func (r *Relation) RefTargets() []string {
	m := make(map[string]bool)
	refTargets(r.Type, m)
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// checkNonRecursive detects cycles in the relation reference graph.
func (c *Catalog) checkNonRecursive() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		color[name] = grey
		path = append(path, name)
		for _, next := range c.relations[name].RefTargets() {
			switch color[next] {
			case grey:
				return fmt.Errorf("schema: recursive complex objects not supported: cycle %s -> %s",
					strings.Join(path, " -> "), next)
			case white:
				if err := visit(next, path); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	for _, name := range c.relOrder {
		if color[name] == white {
			if err := visit(name, nil); err != nil {
				return err
			}
		}
	}
	return nil
}
