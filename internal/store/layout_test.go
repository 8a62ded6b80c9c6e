package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"colock/internal/schema"
)

// layoutModel is what a set, a list or a tuple should hold, kept the
// obvious way: a map plus, for lists, the order of the IDs.
type layoutModel struct {
	vals  map[string]Value
	order []string // list order; unused for sets and tuples
}

func (m *layoutModel) put(id string, v Value) {
	if _, ok := m.vals[id]; !ok {
		m.order = append(m.order, id)
	}
	m.vals[id] = v
}

func (m *layoutModel) remove(id string) Value {
	v, ok := m.vals[id]
	if !ok {
		return nil
	}
	delete(m.vals, id)
	for i, x := range m.order {
		if x == id {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
	return v
}

// ids returns the model's IDs in list order, or sorted when sorted is set.
func (m *layoutModel) ids(sorted bool) []string {
	out := append([]string(nil), m.order...)
	if sorted {
		sort.Strings(out)
	}
	return out
}

// layoutSubject is the common face of Set, List and Tuple the model test
// drives.
type layoutSubject struct {
	kind   string
	sorted bool // IDs come back sorted (sets, tuples) or in list order
	put    func(id string, v Value)
	remove func(id string) Value // nil for tuples, which have no Remove
	get    func(id string) Value
	ids    func() []string
	clone  func() layoutSubject
}

func setSubject(s *Set) layoutSubject {
	return layoutSubject{kind: "set", sorted: true,
		put: func(id string, v Value) { s.Add(id, v) }, remove: s.Remove, get: s.Get, ids: s.IDs,
		clone: func() layoutSubject { return setSubject(s.Clone().(*Set)) }}
}

func listSubject(l *List) layoutSubject {
	return layoutSubject{kind: "list",
		put: func(id string, v Value) { l.Append(id, v) }, remove: l.Remove, get: l.Get, ids: l.IDs,
		clone: func() layoutSubject { return listSubject(l.Clone().(*List)) }}
}

func tupleSubject(t *Tuple) layoutSubject {
	return layoutSubject{kind: "tuple", sorted: true,
		put: func(id string, v Value) { t.Set(id, v) }, get: t.Get, ids: t.FieldNames,
		clone: func() layoutSubject { return tupleSubject(t.Clone().(*Tuple)) }}
}

// checkAgainst compares every observable of sub with the model.
func checkAgainst(t *testing.T, sub layoutSubject, m *layoutModel, at string) {
	t.Helper()
	want := m.ids(sub.sorted)
	got := sub.ids()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s %s: IDs = %v, want %v", sub.kind, at, got, want)
	}
	for _, id := range want {
		if sub.get(id) != m.vals[id] {
			t.Fatalf("%s %s: Get(%q) = %v, want %v", sub.kind, at, id, sub.get(id), m.vals[id])
		}
	}
}

// TestValueLayoutModel drives sets, lists and tuples through random
// sequences of every operation at sizes 0–600 and compares each step with a
// map-based model: ID order (sorted for sets and tuples, list order after
// removals from the middle for lists), lookups of present and absent IDs,
// and clones that stay independent of their source. It ends with an
// EncodeData → RestoreData round trip of the final values.
func TestValueLayoutModel(t *testing.T) {
	cat := schema.NewCatalog("db")
	if err := cat.AddRelation(&schema.Relation{
		Name: "bag", Segment: "s", Key: "id",
		Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("s", schema.Set(schema.Int())),
			schema.F("l", schema.List(schema.Int())),
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	src := New(cat)
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 2, 3, 7, 16, 64, 255, 600} {
		set, list, tuple := NewSet(), NewList(), NewTuple()
		models := map[string]*layoutModel{}
		subjects := []layoutSubject{setSubject(set), listSubject(list), tupleSubject(tuple)}
		for _, sub := range subjects {
			m := &layoutModel{vals: map[string]Value{}}
			models[sub.kind] = m
			// IDs of mixed length, so that sorted order differs from
			// insertion and numeric order.
			id := func() string { return fmt.Sprintf("k%d", rng.Intn(2*size+2)) }
			for step := 0; step < 4*size+20; step++ {
				at := fmt.Sprintf("size %d step %d", size, step)
				switch op := rng.Intn(10); {
				case op < 5 && len(m.vals) < size, op == 5:
					k, v := id(), Int(rng.Int63n(1000))
					sub.put(k, v)
					m.put(k, v)
				case op < 8 && sub.remove != nil:
					// Remove an existing ID (often from the middle) or an
					// absent one.
					k := id()
					if len(m.order) > 0 && rng.Intn(4) > 0 {
						k = m.order[rng.Intn(len(m.order))]
					}
					if got, want := sub.remove(k), m.remove(k); got != want {
						t.Fatalf("%s %s: Remove(%q) = %v, want %v", sub.kind, at, k, got, want)
					}
				case op == 8:
					cl := sub.clone()
					checkAgainst(t, cl, m, at+" (clone)")
					cl.put("zz", Int(-1))
					if cl.remove != nil && len(m.order) > 0 {
						cl.remove(m.order[0])
					}
					checkAgainst(t, sub, m, at+" (source after clone edits)")
				default:
					if k := id(); sub.get(k) != m.vals[k] {
						t.Fatalf("%s %s: Get(%q) = %v, want %v", sub.kind, at, k, sub.get(k), m.vals[k])
					}
				}
				if size <= 64 || step%16 == 0 {
					checkAgainst(t, sub, m, at)
				}
			}
			checkAgainst(t, sub, m, fmt.Sprintf("size %d end", size))
		}
		if set.Len() != len(models["set"].vals) || list.Len() != len(models["list"].vals) {
			t.Fatalf("size %d: Len = %d/%d, want %d/%d", size, set.Len(), list.Len(),
				len(models["set"].vals), len(models["list"].vals))
		}
		key := fmt.Sprintf("b%d", size)
		if err := src.Insert("bag", key, NewTuple().Set("id", Str(key)).Set("s", set).Set("l", list)); err != nil {
			t.Fatal(err)
		}
	}

	data, err := src.EncodeData()
	if err != nil {
		t.Fatal(err)
	}
	dst := New(cat)
	if err := dst.RestoreData(data); err != nil {
		t.Fatal(err)
	}
	for _, key := range src.Keys("bag") {
		for _, field := range []string{"s", "l"} {
			p := P("bag", key, field)
			want, _ := src.Lookup(p)
			got, err := dst.Lookup(p)
			if err != nil || got.String() != want.String() {
				t.Fatalf("%s after restore = %v, %v; want %v", p, got, err, want)
			}
		}
	}
	again, err := dst.EncodeData()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("restored store encodes differently")
	}
}

// encodeRecords gob-encodes hand-made backup records the way EncodeData
// does.
func encodeRecords(t *testing.T, recs []objectRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A malformed backup is an error, never a panic, and leaves the store as it
// was.
func TestRestoreDataMalformed(t *testing.T) {
	effector := func(key, id string) objectRecord {
		return objectRecord{Relation: "effectors", Key: key, Value: toWire(
			NewTuple().Set("eff_id", Str(id)).Set("tool", Str("t")))}
	}
	short := effector("e9", "e9")
	short.Value.Names = append(short.Value.Names, "extra")
	nested := effector("e9", "e9")
	nested.Value.Children[0].Names = []string{"x"}
	cases := map[string]objectRecord{
		"more names than values":      short,
		"names below an atomic value": nested,
		"key attribute disagrees":     effector("e9", "e8"),
		"key no path can address":     effector("e/9", "e/9"),
		"empty key":                   effector("", ""),
		"element ID no path can address": {Relation: "cells", Key: "cx", Value: toWire(
			NewTuple().Set("cell_id", Str("cx")).Set("robots", NewList()).Set("c_objects",
				NewSet().Add("o/1", NewTuple().Set("obj_id", Int(1)).Set("obj_name", Str("n")))))},
	}
	for name, rec := range cases {
		s := PaperDatabase()
		before, _ := s.EncodeData()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: RestoreData panicked: %v", name, r)
				}
			}()
			if err := s.RestoreData(encodeRecords(t, []objectRecord{rec})); err == nil {
				t.Errorf("%s: restored", name)
			}
		}()
		if after, _ := s.EncodeData(); !bytes.Equal(before, after) {
			t.Errorf("%s: failed restore changed the store", name)
		}
	}
}

// The store accepts no key or element ID that a Path could not address:
// each of these used to be stored and then failed every Lookup.
func TestUnaddressableNamesRejected(t *testing.T) {
	s := PaperDatabase()
	eff := func(id string) *Tuple { return NewTuple().Set("eff_id", Str(id)).Set("tool", Str("t")) }
	for _, key := range []string{"x/y", ""} {
		if err := s.Insert("effectors", key, eff(key)); err == nil {
			t.Errorf("Insert key %q accepted", key)
		}
	}
	objs := P("cells", "c1", "c_objects")
	obj := NewTuple().Set("obj_id", Int(7)).Set("obj_name", Str("n"))
	for _, id := range []string{"a/b", ""} {
		if err := s.AddElem(objs, id, obj); err == nil {
			t.Errorf("AddElem id %q accepted", id)
		}
	}
	// An element ID inside an inserted object obeys the same rule.
	cell := NewTuple().Set("cell_id", Str("c9")).Set("robots", NewList()).
		Set("c_objects", NewSet().Add("a/b", obj))
	if err := s.Insert("cells", "c9", cell); err == nil {
		t.Error("Insert of an object holding element ID \"a/b\" accepted")
	}
	if ids, _ := s.CollectionIDs(objs); len(ids) != 1 {
		t.Errorf("c_objects = %v after rejected adds", ids)
	}
	if err := s.AddElem(objs, "o7", obj); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Lookup(objs.Child("o7")); err != nil || v != Value(obj) {
		t.Errorf("Lookup of an accepted element = %v, %v", v, err)
	}
}

// TestStoreLayout: the lock protocol loads Store.version on every S/X lock
// it answers from a scan memo, and every reader writes the store's latch
// (and a BackRefs scan its counter). The version and the catalog must lie a
// cache line away from those, whatever the allocation's alignment, and a
// field added later must say who writes it.
func TestStoreLayout(t *testing.T) {
	const (
		readMostly = iota // loaded by lock calls, written by writes only
		perRead           // written by every reader or scan
		underLatch        // read and written under mu
	)
	roles := map[string]int{"cat": readMostly, "version": readMostly, "mu": perRead, "scans": perRead, "rels": underLatch}
	typ := reflect.TypeOf(Store{})
	type span struct{ lo, hi uintptr }
	spans := map[string]span{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue
		}
		if _, ok := roles[f.Name]; !ok {
			t.Errorf("Store.%s has no role in the layout test: say who writes it", f.Name)
		}
		spans[f.Name] = span{f.Offset, f.Offset + f.Type.Size()}
	}
	for r, rs := range spans {
		for w, ws := range spans {
			if roles[r] != readMostly || roles[w] != perRead {
				continue
			}
			a, b := rs, ws
			if a.lo > b.lo {
				a, b = b, a
			}
			if b.lo < a.hi+cacheLine {
				t.Errorf("Store.%s [%d,%d) is within a cache line of Store.%s [%d,%d)", r, rs.lo, rs.hi, w, ws.lo, ws.hi)
			}
		}
	}
}
