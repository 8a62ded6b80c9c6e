package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// Data snapshots: a deep, self-contained serialization of every complex
// object in the store, used for backup and media recovery in the
// workstation–server simulation (the lock manager has its own snapshot for
// durable locks; this one covers the data).

// wireValue is the gob-friendly shape of a Value tree.
type wireValue struct {
	Kind   uint8 // 0 str, 1 int, 2 real, 3 bool, 4 ref, 5 tuple, 6 set, 7 list
	Str    string
	Int    int64
	Real   float64
	Bool   bool
	RefRel string
	RefKey string
	// Names and Children encode tuple fields (sorted by name), set elements
	// (sorted by ID) or list elements (list order).
	Names    []string
	Children []wireValue
}

const (
	wireStr = iota
	wireInt
	wireReal
	wireBool
	wireRef
	wireTuple
	wireSet
	wireList
)

func toWire(v Value) wireValue {
	switch x := v.(type) {
	case Str:
		return wireValue{Kind: wireStr, Str: string(x)}
	case Int:
		return wireValue{Kind: wireInt, Int: int64(x)}
	case Real:
		return wireValue{Kind: wireReal, Real: float64(x)}
	case Bool:
		return wireValue{Kind: wireBool, Bool: bool(x)}
	case Ref:
		return wireValue{Kind: wireRef, RefRel: x.Relation, RefKey: x.Key}
	case *Tuple:
		return toWireEntries(wireTuple, x.fields)
	case *Set:
		return toWireEntries(wireSet, x.elems)
	case *List:
		return toWireEntries(wireList, x.elems)
	}
	panic(fmt.Sprintf("store: cannot serialize %T", v))
}

// toWireEntries encodes a tuple's, set's or list's entries in their order.
func toWireEntries(kind uint8, es []entry) wireValue {
	w := wireValue{Kind: kind}
	for _, e := range es {
		w.Names = append(w.Names, e.name)
		w.Children = append(w.Children, toWire(e.v))
	}
	return w
}

func fromWire(w wireValue) (Value, error) {
	if len(w.Names) != len(w.Children) {
		return nil, fmt.Errorf("store: %d names for %d values", len(w.Names), len(w.Children))
	}
	switch w.Kind {
	case wireStr:
		return Str(w.Str), nil
	case wireInt:
		return Int(w.Int), nil
	case wireReal:
		return Real(w.Real), nil
	case wireBool:
		return Bool(w.Bool), nil
	case wireRef:
		return Ref{Relation: w.RefRel, Key: w.RefKey}, nil
	case wireTuple:
		t := &Tuple{fields: make([]entry, 0, len(w.Names))}
		return t, fromWireEntries(w, func(n string, c Value) { t.Set(n, c) })
	case wireSet:
		s := &Set{elems: make([]entry, 0, len(w.Names))}
		return s, fromWireEntries(w, func(id string, c Value) { s.Add(id, c) })
	case wireList:
		l := &List{elems: make([]entry, 0, len(w.Names))}
		return l, fromWireEntries(w, func(id string, c Value) { l.Append(id, c) })
	}
	return nil, fmt.Errorf("store: unknown wire kind %d", w.Kind)
}

// fromWireEntries decodes w's children in order and hands each to add. A
// backup taken by EncodeData lists them in the order the value keeps, so
// add only ever appends.
func fromWireEntries(w wireValue, add func(string, Value)) error {
	for i, n := range w.Names {
		c, err := fromWire(w.Children[i])
		if err != nil {
			return err
		}
		add(n, c)
	}
	return nil
}

// objectRecord is one serialized complex object.
type objectRecord struct {
	Relation string
	Key      string
	Value    wireValue
}

// EncodeData serializes every complex object of the store (deterministic
// order) for backup.
func (s *Store) EncodeData() ([]byte, error) {
	s.mu.RLock()
	var records []objectRecord
	for _, rel := range s.cat.Relations() {
		keys := make([]string, 0, len(s.rels[rel.Name]))
		for k := range s.rels[rel.Name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			records = append(records, objectRecord{
				Relation: rel.Name, Key: k, Value: toWire(s.rels[rel.Name][k]),
			})
		}
	}
	s.mu.RUnlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(records); err != nil {
		return nil, fmt.Errorf("store: encode data: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreData replaces the store's entire contents with a backup taken by
// EncodeData. Every restored object is type-checked against the catalog and
// the result is integrity-checked; on any error the store is left unchanged.
func (s *Store) RestoreData(data []byte) error {
	var records []objectRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&records); err != nil {
		return fmt.Errorf("store: decode data: %w", err)
	}
	// Build the new contents aside first.
	fresh := make(map[string]map[string]*Tuple, len(s.rels))
	for _, rel := range s.cat.Relations() {
		fresh[rel.Name] = make(map[string]*Tuple)
	}
	for _, rec := range records {
		rel := s.cat.Relation(rec.Relation)
		if rel == nil {
			return fmt.Errorf("store: restore: unknown relation %q", rec.Relation)
		}
		v, err := fromWire(rec.Value)
		if err != nil {
			return fmt.Errorf("store: restore %s/%s: %w", rec.Relation, rec.Key, err)
		}
		obj, ok := v.(*Tuple)
		if !ok {
			return fmt.Errorf("store: restore %s/%s: not a tuple", rec.Relation, rec.Key)
		}
		if err := checkObject(rel, rec.Key, obj); err != nil {
			return fmt.Errorf("store: restore %s/%s: %w", rec.Relation, rec.Key, err)
		}
		if _, dup := fresh[rec.Relation][rec.Key]; dup {
			return fmt.Errorf("store: restore: duplicate %s/%s", rec.Relation, rec.Key)
		}
		fresh[rec.Relation][rec.Key] = obj
	}
	s.mu.Lock()
	s.version.Add(1)
	old := s.rels
	s.rels = fresh
	s.mu.Unlock()
	if err := s.CheckIntegrity(); err != nil {
		s.mu.Lock()
		s.version.Add(1)
		s.rels = old
		s.mu.Unlock()
		return fmt.Errorf("store: restore: %w", err)
	}
	return nil
}
