package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"colock/internal/schema"
)

// Store is an in-memory database of complex objects, organized as
// database → segments → relations → complex objects, mirroring the System R
// lock hierarchy the paper extends. It is safe for concurrent use; isolation
// between transactions is the job of the lock protocol layered on top, not
// of the store.
type Store struct {
	cat *schema.Catalog

	// version counts writes: every mutator adds one inside its write
	// critical section, so a result read off the store stays current while
	// Version still returns what it returned before the read (see Version).
	// The lock protocol loads it on every S/X lock it answers from a scan
	// memo, so it keeps a cache line away from the latch every reader writes.
	version atomic.Uint64
	_       linePad

	mu   sync.RWMutex
	rels map[string]map[string]*Tuple // relation → key → root tuple

	// scans counts nodes visited by reverse-reference scans (BackRefs).
	// The traditional DAG protocol must pay this cost to X-lock shared
	// data (§3.2.2); the counter makes the cost measurable in E3.
	scans atomic.Uint64
}

// cacheLine is the coherence unit of the x86-64 and arm64 machines the lock
// path is tuned for; linePad keeps what precedes it and what follows it on
// different cache lines, whatever the alignment of the allocation.
const cacheLine = 64

type linePad [cacheLine]byte

// New returns an empty store over the given (validated) catalog.
func New(cat *schema.Catalog) *Store {
	s := &Store{cat: cat, rels: make(map[string]map[string]*Tuple)}
	for _, r := range cat.Relations() {
		s.rels[r.Name] = make(map[string]*Tuple)
	}
	return s
}

// Catalog returns the schema catalog the store was built over.
func (s *Store) Catalog() *schema.Catalog { return s.cat }

// Version returns the store's write version. It moves on every call of a
// mutator (Insert, Delete, SetAtomic, AddElem, RemoveElem, RestoreData),
// inside the mutator's write critical section. A reader that loads it
// before reading may therefore reuse what it read for as long as Version
// returns the same value: no write has been made since. That holds only
// for writes made through the mutators, so no value is edited in place once
// the store holds it: what Get and Lookup return, what Insert, AddElem and
// SetAtomic were given, and what Delete and RemoveElem hand back (undo
// puts it back) are all read-only.
func (s *Store) Version() uint64 { return s.version.Load() }

// Insert adds a complex object to a relation. The object is type-checked
// and its key attribute must match the given key. The store keeps obj
// itself, not a copy: do not edit it afterwards (see Version).
func (s *Store) Insert(relation, key string, obj *Tuple) error {
	rel := s.cat.Relation(relation)
	if rel == nil {
		return fmt.Errorf("store: unknown relation %q", relation)
	}
	if err := checkObject(rel, key, obj); err != nil {
		return fmt.Errorf("store: insert into %q: %w", relation, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	if s.rels[relation] == nil {
		// The relation was added to the catalog after the store was built
		// (DDL): create its object map lazily.
		s.rels[relation] = make(map[string]*Tuple)
	}
	if _, dup := s.rels[relation][key]; dup {
		return fmt.Errorf("store: duplicate object %q/%q", relation, key)
	}
	s.rels[relation][key] = obj
	return nil
}

// checkObject is what Insert and RestoreData ask of a complex object: a key
// a path can address, a value of the relation's type, and a key attribute
// equal to the key.
func checkObject(rel *schema.Relation, key string, obj *Tuple) error {
	if err := checkSegment(key); err != nil {
		return err
	}
	if err := Check(obj, rel.Type); err != nil {
		return err
	}
	if kv := obj.Get(rel.Key); atomicString(kv) != key {
		return fmt.Errorf("key attribute %q = %v, want %q", rel.Key, kv, key)
	}
	return nil
}

// atomicString renders an atomic value as a plain key string.
func atomicString(v Value) string {
	switch x := v.(type) {
	case Str:
		return string(x)
	case Int:
		return Int(x).String()
	case Real:
		return Real(x).String()
	case Bool:
		return Bool(x).String()
	}
	return ""
}

// Delete removes a complex object and returns it (nil if absent): the
// store's own value, read-only if it may be inserted again (see Version).
func (s *Store) Delete(relation, key string) *Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	obj := s.rels[relation][key]
	delete(s.rels[relation], key)
	return obj
}

// Get returns the root tuple of a complex object, or nil. The tuple is the
// store's live value: read it, never edit it — writes go through the
// mutators, which keep Version current. Clone it to change a copy.
func (s *Store) Get(relation, key string) *Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rels[relation][key]
}

// Keys returns the sorted keys of a relation.
func (s *Store) Keys(relation string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.rels[relation]))
	for k := range s.rels[relation] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of complex objects in a relation.
func (s *Store) Count(relation string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rels[relation])
}

// Resolve follows a reference to its target root tuple, or nil.
func (s *Store) Resolve(r Ref) *Tuple { return s.Get(r.Relation, r.Key) }

// Lookup navigates a path and returns the value it addresses. Paths of
// length 1 address a relation and return nil (relations are not Values);
// use Keys for them. Like Get it returns the live value, which is
// read-only: writes go through the mutators (LookupClone for a copy).
func (s *Store) Lookup(p Path) (Value, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupLocked(p)
}

func (s *Store) lookupLocked(p Path) (Value, error) {
	rel, ok := s.rels[p.Relation()]
	if !ok {
		return nil, fmt.Errorf("store: unknown relation %q", p.Relation())
	}
	obj, ok := rel[p.Key()]
	if !ok {
		return nil, fmt.Errorf("store: no object %q/%q", p.Relation(), p.Key())
	}
	var cur Value = obj
	for _, seg := range p[2:] {
		next := get(cur, seg)
		if next == nil {
			return nil, fmt.Errorf("store: path %q: %v has no component %q", p, cur.Kind(), seg)
		}
		cur = next
	}
	return cur, nil
}

// typeAt returns the schema type of the value a path addresses, nil when
// the path does not fit the schema.
func (s *Store) typeAt(p Path) *schema.Type {
	rel := s.cat.Relation(p.Relation())
	if rel == nil || len(p) < 2 {
		return nil
	}
	t := rel.Type
	for _, seg := range p[2:] {
		switch {
		case t == nil:
			return nil
		case t.Kind == schema.KindTuple:
			t = t.Field(seg)
		default:
			t = t.Elem // nil below an atomic value
		}
	}
	return t
}

// SetAtomic replaces the atomic (or reference) value a path addresses and
// returns the previous value, for undo logging. Like Insert and AddElem it
// type-checks what it stores: the lock protocol finds references by the
// schema's word on where they can be (RefTargets). The store keeps v
// itself: do not edit it afterwards (see Version).
func (s *Store) SetAtomic(p Path, v Value) (Value, error) {
	if len(p) < 3 {
		return nil, fmt.Errorf("store: path %q too short for attribute update", p)
	}
	if !v.Kind().Atomic() {
		return nil, fmt.Errorf("store: SetAtomic with non-atomic %v", v.Kind())
	}
	if err := Check(v, s.typeAt(p)); err != nil {
		return nil, fmt.Errorf("store: path %q: %w", p, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	parent, err := s.lookupLocked(p.Parent())
	if err != nil {
		return nil, err
	}
	es, i, ok := find(parent, p[len(p)-1])
	if !ok || es[i].v == nil {
		return nil, fmt.Errorf("store: path %q: %v has no component %q", p, parent.Kind(), p[len(p)-1])
	}
	old := es[i].v
	es[i].v = v
	return old, nil
}

// AddElem inserts an element into the collection a path addresses; it fails
// if the ID already exists. The store keeps v itself, not a copy: do not
// edit it afterwards (see Version).
func (s *Store) AddElem(collection Path, id string, v Value) error {
	if err := checkSegment(id); err != nil {
		return fmt.Errorf("store: %q: element ID: %w", collection, err)
	}
	if t := s.typeAt(collection); t != nil && t.Elem != nil {
		if err := Check(v, t.Elem); err != nil {
			return fmt.Errorf("store: %q: element %q: %w", collection, id, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	cv, err := s.lookupLocked(collection)
	if err != nil {
		return err
	}
	if get(cv, id) != nil {
		return fmt.Errorf("store: %q: duplicate element %q", collection, id)
	}
	switch x := cv.(type) {
	case *Set:
		x.Add(id, v)
	case *List:
		x.Append(id, v)
	default:
		return fmt.Errorf("store: %q is not a collection", collection)
	}
	return nil
}

// RemoveElem removes an element from the collection a path addresses and
// returns the removed value (nil if absent): the store's own value,
// read-only if it may be added again (see Version).
func (s *Store) RemoveElem(collection Path, id string) (Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version.Add(1)
	cv, err := s.lookupLocked(collection)
	if err != nil {
		return nil, err
	}
	switch x := cv.(type) {
	case *Set:
		return x.Remove(id), nil
	case *List:
		return x.Remove(id), nil
	}
	return nil, fmt.Errorf("store: %q is not a collection", collection)
}

// BackRef describes one reference found by a reverse scan: the path of the
// Ref leaf that points at the target.
type BackRef struct {
	// RefPath addresses the reference element/attribute itself.
	RefPath Path
}

// BackRefs scans the whole database for references to relation/key and
// returns the paths of all referencing leaves. This is the expensive
// "find all parents" operation the traditional DAG protocol needs before it
// may X-lock shared data (§3.2.2: "It is a very time-consuming task to find
// out which robots are affected"); every node visited increments the scan
// counter.
func (s *Store) BackRefs(relation, key string) []BackRef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []BackRef
	for _, rel := range s.cat.Relations() {
		objs := s.rels[rel.Name]
		keys := make([]string, 0, len(objs))
		for k := range objs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := P(rel.Name, k)
			s.scanValue(objs[k], p, relation, key, &out)
		}
	}
	return out
}

func (s *Store) scanValue(v Value, at Path, relation, key string, out *[]BackRef) {
	s.scans.Add(1)
	if x, ok := v.(Ref); ok && x.Relation == relation && x.Key == key {
		*out = append(*out, BackRef{RefPath: at})
	}
	for _, e := range children(v) {
		s.scanValue(e.v, at.Child(e.name), relation, key, out)
	}
}

// ScanCount returns the cumulative number of nodes visited by BackRefs.
func (s *Store) ScanCount() uint64 { return s.scans.Load() }

// ResetScanCount zeroes the reverse-scan counter.
func (s *Store) ResetScanCount() { s.scans.Store(0) }

// Refs returns the paths of all reference leaves inside the subtree rooted
// at p, together with their targets, for callers that need to know where
// each reference sits (unit analysis, the baseline protocols). The lock
// protocol's downward propagation needs only the targets and uses RefTargets.
// The whole traversal runs under the store's read lock so it is safe against
// concurrent mutation of unrelated data.
func (s *Store) Refs(p Path) ([]RefAt, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	v, err := s.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	var out []RefAt
	collectRefs(v, p, &out)
	return out, nil
}

// RefTargets appends to buf the target of every reference leaf below p that
// plan leads to, and returns the extended slice: the "scan over all the
// existing references" of implicit downward propagation (§4.4.2.1), reduced
// to the hops the schema says can end in a reference. A path of length 1
// scans every object of the relation; an instance that does not exist (yet)
// contributes nothing. Targets come in no particular order and may repeat.
// One pass under the read lock; nothing is allocated beyond buf's growth.
func (s *Store) RefTargets(p Path, plan *schema.RefPlan, buf []Ref) []Ref {
	if plan == nil || len(p) == 0 {
		return buf
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(p) == 1 {
		for _, obj := range s.rels[p[0]] {
			buf = collectTargets(obj, plan, buf)
		}
		return buf
	}
	v, err := s.lookupLocked(p)
	if err != nil {
		return buf
	}
	return collectTargets(v, plan, buf)
}

// collectTargets walks v along plan. The value decides how to descend and
// the plan where, so a value that does not fit the plan's type is skipped
// rather than misread.
func collectTargets(v Value, plan *schema.RefPlan, buf []Ref) []Ref {
	switch x := v.(type) {
	case Ref:
		return append(buf, x)
	case *Tuple:
		for _, f := range plan.Fields {
			buf = collectTargets(x.Get(f.Name), f.Plan, buf)
		}
		return buf
	}
	if plan.Elem != nil {
		for _, e := range children(v) {
			buf = collectTargets(e.v, plan.Elem, buf)
		}
	}
	return buf
}

// LookupClone navigates a path and returns a deep copy of the addressed
// value, taken under the store's read lock. Use it whenever the result is
// inspected outside the store (Lookup returns live structures).
func (s *Store) LookupClone(p Path) (Value, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	v, err := s.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	return v.Clone(), nil
}

// CollectionIDs returns the element IDs of the collection a path addresses
// (sorted for sets, list order for lists), copied under the read lock.
func (s *Store) CollectionIDs(p Path) ([]string, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(p) < 2 {
		return nil, fmt.Errorf("store: path %q does not address a value", p)
	}
	v, err := s.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	switch c := v.(type) {
	case *Set:
		return c.IDs(), nil
	case *List:
		return c.IDs(), nil
	}
	return nil, fmt.Errorf("store: %q is not a collection", p)
}

// RefAt is a reference leaf located at a path.
type RefAt struct {
	Path   Path
	Target Ref
}

func collectRefs(v Value, at Path, out *[]RefAt) {
	if x, ok := v.(Ref); ok {
		*out = append(*out, RefAt{Path: at, Target: x})
	}
	for _, e := range children(v) {
		collectRefs(e.v, at.Child(e.name), out)
	}
}

// CheckIntegrity verifies that every reference in the database resolves to
// an existing complex object.
func (s *Store) CheckIntegrity() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rel := range s.cat.Relations() {
		for k, obj := range s.rels[rel.Name] {
			var refs []RefAt
			collectRefs(obj, P(rel.Name, k), &refs)
			for _, r := range refs {
				if tgt, ok := s.rels[r.Target.Relation]; !ok || tgt[r.Target.Key] == nil {
					return fmt.Errorf("store: dangling reference at %q to %s/%s", r.Path, r.Target.Relation, r.Target.Key)
				}
			}
		}
	}
	return nil
}
