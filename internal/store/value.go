// Package store implements an in-memory storage engine for extended-NF²
// complex objects: values (atomic, set, list, tuple, reference), a
// database/segment/relation store with key-addressed complex objects,
// hierarchical path navigation, type checking against a schema catalog,
// reference resolution and reverse-reference scans, and the concrete example
// database of the paper's Figure 6 (cell c1 and the effectors library).
package store

import (
	"fmt"
	"strconv"
	"strings"

	"colock/internal/schema"
)

// Value is a data value of the extended NF² model.
type Value interface {
	// Kind returns the schema kind this value inhabits.
	Kind() schema.Kind
	// Clone returns a deep copy.
	Clone() Value
	// String renders the value for display.
	String() string
}

// Str is an atomic string value.
type Str string

// Kind implements Value.
func (Str) Kind() schema.Kind { return schema.KindStr }

// Clone implements Value.
func (v Str) Clone() Value { return v }

// String implements Value.
func (v Str) String() string { return strconv.Quote(string(v)) }

// Int is an atomic integer value.
type Int int64

// Kind implements Value.
func (Int) Kind() schema.Kind { return schema.KindInt }

// Clone implements Value.
func (v Int) Clone() Value { return v }

// String implements Value.
func (v Int) String() string { return strconv.FormatInt(int64(v), 10) }

// Real is an atomic floating-point value.
type Real float64

// Kind implements Value.
func (Real) Kind() schema.Kind { return schema.KindReal }

// Clone implements Value.
func (v Real) Clone() Value { return v }

// String implements Value.
func (v Real) String() string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }

// Bool is an atomic boolean value.
type Bool bool

// Kind implements Value.
func (Bool) Kind() schema.Kind { return schema.KindBool }

// Clone implements Value.
func (v Bool) Clone() Value { return v }

// String implements Value.
func (v Bool) String() string { return strconv.FormatBool(bool(v)) }

// Ref is a reference to a complex object of another relation — the paper's
// "reference to common data". The implementation (key values vs. surrogates)
// is deliberately simple; the paper makes no assumption about it.
type Ref struct {
	Relation string
	Key      string
}

// Kind implements Value.
func (Ref) Kind() schema.Kind { return schema.KindRef }

// Clone implements Value.
func (v Ref) Clone() Value { return v }

// String implements Value.
func (v Ref) String() string { return "->" + v.Relation + "/" + v.Key }

// entry is one component of a tuple, set or list: a field name or element
// ID with its value. Tuples and sets keep their entries sorted by name,
// lists in list order; every walk over a value reads them in that order.
type entry struct {
	name string
	v    Value
}

// children returns the entries of a tuple, set or list, nil for any other
// value.
func children(v Value) []entry {
	switch x := v.(type) {
	case *Tuple:
		return x.fields
	case *Set:
		return x.elems
	case *List:
		return x.elems
	}
	return nil
}

// find returns the entries of v (see children), the index of name among
// them and whether it is there. A list is scanned and a miss gives its
// length; tuples and sets are binary-searched and a miss gives the index
// where name belongs.
func find(v Value, name string) ([]entry, int, bool) {
	es := children(v)
	if _, list := v.(*List); list {
		for i := range es {
			if es[i].name == name {
				return es, i, true
			}
		}
		return es, len(es), false
	}
	lo, hi := 0, len(es)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); es[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return es, lo, lo < len(es) && es[lo].name == name
}

// get returns v's component name, or nil.
func get(v Value, name string) Value {
	if es, i, ok := find(v, name); ok {
		return es[i].v
	}
	return nil
}

// put stores name → x in v's entries, replacing an existing entry, and
// returns the entries. A new entry goes where find says it belongs.
func put(v Value, name string, x Value) []entry {
	es, i, ok := find(v, name)
	if ok {
		es[i].v = x
		return es
	}
	if len(es) == cap(es) {
		// Grow by a quarter rather than double: values are built once and
		// then mostly read, and spare capacity is live heap.
		es = append(make([]entry, 0, len(es)+1+len(es)/4), es...)
	}
	es = es[:len(es)+1]
	copy(es[i+1:], es[i:])
	es[i] = entry{name, x}
	return es
}

// remove deletes v's component name and returns the entries and the
// removed value (nil if absent).
func remove(v Value, name string) ([]entry, Value) {
	es, i, ok := find(v, name)
	if !ok {
		return es, nil
	}
	x := es[i].v
	copy(es[i:], es[i+1:])
	es[len(es)-1] = entry{}
	return es[:len(es)-1], x
}

// names returns a copy of the names of es, in order.
func names(es []entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

// cloneEntries deep-copies es into a slice of exactly its length.
func cloneEntries(es []entry) []entry {
	if len(es) == 0 {
		return nil
	}
	out := make([]entry, len(es))
	for i, e := range es {
		out[i] = entry{e.name, e.v.Clone()}
	}
	return out
}

// render formats es as name+sep+value pairs inside open and close.
func render(open string, es []entry, sep, close string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.name + sep + e.v.String()
	}
	return open + strings.Join(parts, ", ") + close
}

// Tuple is a (complex) tuple value with named fields, kept as one slice
// sorted by field name: a tuple has a handful of fields, which fit in one
// or two cache lines, where a map would cost several times the memory.
type Tuple struct {
	fields []entry
}

// NewTuple returns an empty tuple value.
func NewTuple() *Tuple { return &Tuple{} }

// Kind implements Value.
func (*Tuple) Kind() schema.Kind { return schema.KindTuple }

// Set stores a field value, replacing any previous one, and returns the
// tuple for chaining.
func (t *Tuple) Set(name string, v Value) *Tuple {
	t.fields = put(t, name, v)
	return t
}

// Get returns the named field value, or nil.
func (t *Tuple) Get(name string) Value { return get(t, name) }

// FieldNames returns the field names in sorted order.
func (t *Tuple) FieldNames() []string { return names(t.fields) }

// Clone implements Value.
func (t *Tuple) Clone() Value { return &Tuple{fields: cloneEntries(t.fields)} }

// String implements Value.
func (t *Tuple) String() string { return render("{", t.fields, ":", "}") }

// Set is an unordered collection of identified elements. Element IDs give
// subobjects a stable identity, which the lock technique needs to name
// lockable units (e.g. "c_object o1"). For sets of references the
// conventional ID is the referenced key. The elements are one slice sorted
// by ID: Get is a binary search, Add and Remove shift the tail.
type Set struct {
	elems []entry
}

// NewSet returns an empty set value.
func NewSet() *Set { return &Set{} }

// Kind implements Value.
func (*Set) Kind() schema.Kind { return schema.KindSet }

// Add inserts (or replaces) the element with the given ID and returns the
// set for chaining.
func (s *Set) Add(id string, v Value) *Set {
	s.elems = put(s, id, v)
	return s
}

// Remove deletes the element and returns its previous value (nil if absent).
func (s *Set) Remove(id string) (v Value) {
	s.elems, v = remove(s, id)
	return v
}

// Get returns the element with the given ID, or nil.
func (s *Set) Get(id string) Value { return get(s, id) }

// Len returns the number of elements.
func (s *Set) Len() int { return len(s.elems) }

// IDs returns the element IDs in sorted order.
func (s *Set) IDs() []string { return names(s.elems) }

// Clone implements Value.
func (s *Set) Clone() Value { return &Set{elems: cloneEntries(s.elems)} }

// String implements Value.
func (s *Set) String() string { return render("S{", s.elems, "=", "}") }

// List is an ordered collection of identified elements (e.g. the robots of a
// cell, ordered by robot_id), kept as one slice in list order: Get, Append
// and Remove find an ID by a linear scan.
type List struct {
	elems []entry
}

// NewList returns an empty list value.
func NewList() *List { return &List{} }

// Kind implements Value.
func (*List) Kind() schema.Kind { return schema.KindList }

// Append adds an element at the end; appending an existing ID replaces the
// value in place. Returns the list for chaining.
func (l *List) Append(id string, v Value) *List {
	l.elems = put(l, id, v)
	return l
}

// Remove deletes the element and returns its previous value (nil if absent).
func (l *List) Remove(id string) (v Value) {
	l.elems, v = remove(l, id)
	return v
}

// Get returns the element with the given ID, or nil. It is a linear scan.
func (l *List) Get(id string) Value { return get(l, id) }

// Len returns the number of elements.
func (l *List) Len() int { return len(l.elems) }

// IDs returns the element IDs in list order.
func (l *List) IDs() []string { return names(l.elems) }

// Clone implements Value.
func (l *List) Clone() Value { return &List{elems: cloneEntries(l.elems)} }

// String implements Value.
func (l *List) String() string { return render("L[", l.elems, "=", "]") }

// Check validates that v conforms to type t.
func Check(v Value, t *schema.Type) error {
	if t == nil {
		return fmt.Errorf("store: nil type")
	}
	if v == nil {
		return fmt.Errorf("store: nil value for type %v", t)
	}
	switch t.Kind {
	case schema.KindStr, schema.KindInt, schema.KindReal, schema.KindBool:
		if v.Kind() != t.Kind {
			return fmt.Errorf("store: value kind %v, want %v", v.Kind(), t.Kind)
		}
		return nil
	case schema.KindRef:
		r, ok := v.(Ref)
		if !ok {
			return fmt.Errorf("store: value kind %v, want ref", v.Kind())
		}
		if r.Relation != t.Target {
			return fmt.Errorf("store: reference targets %q, want %q", r.Relation, t.Target)
		}
		return nil
	case schema.KindSet, schema.KindList:
		if v.Kind() != t.Kind {
			return fmt.Errorf("store: value kind %v, want %v", v.Kind(), t.Kind)
		}
		// Every element ID must be one a path can address.
		for _, e := range children(v) {
			if err := checkSegment(e.name); err != nil {
				return err
			}
			if err := Check(e.v, t.Elem); err != nil {
				return fmt.Errorf("element %q: %w", e.name, err)
			}
		}
		return nil
	case schema.KindTuple:
		tp, ok := v.(*Tuple)
		if !ok {
			return fmt.Errorf("store: value kind %v, want tuple", v.Kind())
		}
		for _, f := range t.Fields {
			fv := tp.Get(f.Name)
			if fv == nil {
				return fmt.Errorf("store: missing field %q", f.Name)
			}
			if err := Check(fv, f.Type); err != nil {
				return fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
		for _, f := range tp.fields {
			if t.Field(f.name) == nil {
				return fmt.Errorf("store: unexpected field %q", f.name)
			}
		}
		return nil
	}
	return fmt.Errorf("store: invalid type kind %v", t.Kind)
}

// ZeroValue constructs the empty value of a type (empty strings and
// collections, zero numbers). References have no meaningful zero and yield
// an empty Ref to the target relation.
func ZeroValue(t *schema.Type) Value {
	switch t.Kind {
	case schema.KindStr:
		return Str("")
	case schema.KindInt:
		return Int(0)
	case schema.KindReal:
		return Real(0)
	case schema.KindBool:
		return Bool(false)
	case schema.KindRef:
		return Ref{Relation: t.Target}
	case schema.KindSet:
		return NewSet()
	case schema.KindList:
		return NewList()
	case schema.KindTuple:
		tp := NewTuple()
		for _, f := range t.Fields {
			tp.Set(f.Name, ZeroValue(f.Type))
		}
		return tp
	}
	return nil
}
