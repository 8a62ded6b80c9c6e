package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"colock/internal/schema"
	"colock/internal/store"
)

// Unit analysis (§4.4.1, Figure 6). A complex object's instance graph
// decomposes into one outer unit (its non-shared nodes plus the relation,
// segment and database ancestors) and the inner units it references (shared
// complex objects of other relations, recursively). The root of an inner
// unit is its entry point; a unit plus the immediate parents of its root up
// to the database node forms its superunit.

// InnerUnit describes one inner unit reachable from an object.
type InnerUnit struct {
	// EntryPoint is the root of the inner unit, e.g. effectors/e1.
	EntryPoint store.Path
	// Nodes are all instance nodes of the unit (entry point, its attribute
	// nodes, down to and including reference BLUs), in preorder.
	Nodes []store.Path
	// Superunit lists the immediate parents of the entry point up to and
	// including the database node, leaf-to-root: relation, segment,
	// database.
	Superunit []Node
	// ReferencedFrom lists the reference-BLU paths pointing at this entry
	// point from the analyzed object's units (sorted).
	ReferencedFrom []store.Path
	// Depth is 1 for units referenced directly from the outer unit, 2 for
	// units referenced from depth-1 units ("common data may again contain
	// common data", §2), and so on.
	Depth int
}

// ObjectUnits is the unit decomposition of one complex object.
type ObjectUnits struct {
	// Object is the complex-object root path, e.g. cells/c1.
	Object store.Path
	// OuterNodes are the nodes of the outer unit: database, segment,
	// relation, then every instance node of the object down to and
	// including reference BLUs (preorder).
	OuterNodes []Node
	// Inner are the inner units, sorted by (depth, entry point).
	Inner []InnerUnit
}

// ComputeUnits decomposes the complex object at path (relation/key) into its
// outer unit and all transitively reachable inner units.
func ComputeUnits(st *store.Store, nm *Namer, object store.Path) (*ObjectUnits, error) {
	if len(object) != 2 {
		return nil, fmt.Errorf("core: %q is not a complex-object path", object)
	}
	rel := nm.cat.Relation(object.Relation())
	if rel == nil {
		return nil, fmt.Errorf("core: unknown relation %q", object.Relation())
	}
	root := st.Get(object.Relation(), object.Key())
	if root == nil {
		return nil, fmt.Errorf("core: no object %q", object)
	}

	u := &ObjectUnits{Object: object.Clone()}
	u.OuterNodes = append(u.OuterNodes,
		DatabaseNode(), SegmentNode(rel.Segment), DataNode(store.P(object.Relation())))

	nodes, refs := unitNodes(st, object)
	for _, p := range nodes {
		u.OuterNodes = append(u.OuterNodes, DataNode(p))
	}

	// Breadth-first over referenced entry points, depth by depth.
	type pending struct {
		entry store.Path
		from  store.Path
	}
	seen := make(map[string]*InnerUnit)
	frontier := refs
	depth := 1
	for len(frontier) > 0 {
		var next []store.RefAt
		for _, r := range frontier {
			entry := store.P(r.Target.Relation, r.Target.Key)
			key := entry.String()
			if iu := seen[key]; iu != nil {
				iu.ReferencedFrom = append(iu.ReferencedFrom, r.Path.Clone())
				continue
			}
			trel := nm.cat.Relation(r.Target.Relation)
			if trel == nil {
				return nil, fmt.Errorf("core: reference at %q targets unknown relation %q", r.Path, r.Target.Relation)
			}
			if st.Get(r.Target.Relation, r.Target.Key) == nil {
				return nil, fmt.Errorf("core: dangling reference at %q to %q", r.Path, entry)
			}
			inNodes, inRefs := unitNodes(st, entry)
			iu := &InnerUnit{
				EntryPoint: entry,
				Nodes:      inNodes,
				Superunit: []Node{
					DataNode(store.P(r.Target.Relation)),
					SegmentNode(trel.Segment),
					DatabaseNode(),
				},
				ReferencedFrom: []store.Path{r.Path.Clone()},
				Depth:          depth,
			}
			seen[key] = iu
			next = append(next, inRefs...)
		}
		frontier = next
		depth++
	}

	for _, iu := range seen {
		sort.Slice(iu.ReferencedFrom, func(i, j int) bool {
			return iu.ReferencedFrom[i].String() < iu.ReferencedFrom[j].String()
		})
		u.Inner = append(u.Inner, *iu)
	}
	sort.Slice(u.Inner, func(i, j int) bool {
		if u.Inner[i].Depth != u.Inner[j].Depth {
			return u.Inner[i].Depth < u.Inner[j].Depth
		}
		return u.Inner[i].EntryPoint.String() < u.Inner[j].EntryPoint.String()
	})
	return u, nil
}

// unitNodes enumerates the instance nodes of the unit rooted at the given
// complex-object path: the root and all descendants in preorder, stopping at
// (but including) reference BLUs. It also returns the references found at
// the unit's boundary.
func unitNodes(st *store.Store, object store.Path) ([]store.Path, []store.RefAt) {
	var nodes []store.Path
	var refs []store.RefAt
	v, err := st.LookupClone(object)
	if err != nil {
		return nil, nil
	}
	var rec func(val store.Value, at store.Path)
	rec = func(val store.Value, at store.Path) {
		nodes = append(nodes, at.Clone())
		switch x := val.(type) {
		case store.Ref:
			refs = append(refs, store.RefAt{Path: at.Clone(), Target: x})
		case *store.Tuple:
			for _, n := range x.FieldNames() {
				rec(x.Get(n), at.Child(n))
			}
		case *store.Set:
			for _, id := range x.IDs() {
				rec(x.Get(id), at.Child(id))
			}
		case *store.List:
			for _, id := range x.IDs() {
				rec(x.Get(id), at.Child(id))
			}
		}
	}
	rec(v, object)
	return nodes, refs
}

// EntryPointsUnder returns the entry points of the inner units directly
// accessible via the node n: the distinct targets of all references in n's
// subtree, excluding targets that are themselves descendants of n in the
// lock hierarchy (those are already covered implicitly by a lock on n).
// The result is sorted (Path.String() order) for deterministic
// lock-acquisition order.
//
// This is the scan the protocol performs for implicit downward propagation
// (§4.4.2.1). It is compiled from the schema: the type of n says whether a
// reference can lie below it and which hops lead there (schema.RefPlan), so
// a node over reference-free data is answered without touching the store,
// and any other node by one read-locked pass over just those hops. The
// protocol keeps each node's result in the node's scan memo
// (Namer.entryPoints); EntryPointsUnder scans every time, the reference the
// memo is tested against.
func EntryPointsUnder(st *store.Store, nm *Namer, n Node) ([]store.Path, error) {
	var t *schema.Type
	if n.Level == LevelData {
		// The schema walk, not the name cache: a handful of steps over
		// memory that is always hot, which a cache entry for a path not
		// named lately is not. A path of invalid shape in a known relation
		// has no type, and nothing stored below it.
		info, err := nm.classifyUncached(n.Path)
		if err != nil && nm.cat.Relation(n.Path.Relation()) == nil {
			return nil, err
		}
		t = info.Type
	}
	// Most nodes reference a handful of entry points at most: collect on the
	// stack, and allocate only the result.
	var few [8]store.Ref
	eps, err := entryTargets(st, nm, n, t, few[:0])
	if err != nil || len(eps) == 0 {
		return nil, err
	}
	segs := make([]string, 0, 2*len(eps))
	out := make([]store.Path, len(eps))
	for i, ep := range eps {
		segs = append(segs, ep.Relation, ep.Key)
		out[i] = segs[2*i : 2*i+2 : 2*i+2]
	}
	return out, nil
}

// scanMemo is one entry-point scan below a node, kept in the node's name
// entry: the entry points entryTargets found, in its order, as the name
// cache's entries, and a store version read before a scan that found
// exactly them. While Store.Version still returns version, no write has
// been made since, and a scan would find the same list. eps never changes
// once published; version only rises, when a later scan of the node finds
// the same list, so a write that leaves the node's references alone costs
// the node's next lock one scan and no allocation. Every node without
// entry points shares the namer's memo of its version (noEps), whose
// version never moves: one node's scan says nothing of the others.
type scanMemo struct {
	version atomic.Uint64
	eps     []*nameEntry
}

// entryPoints returns the entry points below n — the database, a segment,
// a relation, or a data node whose type has a ref plan — whose bound name
// entry is e, and a store version at which they were exactly the node's
// entry points: from e's memo when the store has not been written since
// the memo's scan — no latch, no allocation — or else from a fresh scan of
// the bound store, which renews the memo. Only a scan whose entry points
// differ from the memo's allocates, the first empty scan of each version,
// and a scan that finds more than eight entry points.
func (nm *Namer) entryPoints(n Node, e *nameEntry) ([]*nameEntry, uint64, error) {
	v := nm.st.Version() // before the scan: a write after it moves the version
	m := e.scan.Load()
	if m != nil && m.version.Load() == v {
		return m.eps, v, nil
	}
	var few [8]store.Ref
	refs, err := entryTargets(nm.st, nm, n, e.typ, few[:0])
	if err != nil {
		return nil, 0, err
	}
	switch {
	case len(refs) == 0:
		m = nm.emptyMemo(v)
	case m != nil && sameEntries(m.eps, refs):
		// m is this node's own memo (it lists entry points): raise its
		// version to v unless another scan already raised it further.
		for old := m.version.Load(); old < v && !m.version.CompareAndSwap(old, v); old = m.version.Load() {
		}
		return m.eps, v, nil
	default:
		m = &scanMemo{eps: make([]*nameEntry, len(refs))}
		m.version.Store(v)
		for i, ep := range refs {
			if m.eps[i], err = nm.entryFor(store.Path{ep.Relation, ep.Key}); err != nil {
				return nil, 0, err
			}
		}
	}
	e.scan.Store(m)
	return m.eps, v, nil
}

// emptyMemo returns a memo without entry points for version v: the shared
// one when it is of v, else a fresh one, which the first empty scan of a
// version newer than the shared memo's publishes in its place.
func (nm *Namer) emptyMemo(v uint64) *scanMemo {
	m := nm.noEps.Load()
	if m != nil && m.version.Load() == v {
		return m
	}
	fresh := new(scanMemo)
	fresh.version.Store(v)
	if m == nil || m.version.Load() < v {
		nm.noEps.CompareAndSwap(m, fresh)
	}
	return fresh
}

// sameEntries reports whether the resolved entry points eps are refs.
func sameEntries(eps []*nameEntry, refs []store.Ref) bool {
	if len(eps) != len(refs) {
		return false
	}
	for i, ep := range eps {
		if ep.path[0] != refs[i].Relation || ep.path[1] != refs[i].Key {
			return false
		}
	}
	return true
}

// entryTargets appends to buf the entry points below n, distinct and in
// Path.String() order. t is n's schema type (data nodes only; nil for a path
// of invalid shape, below which nothing is stored).
func entryTargets(st *store.Store, nm *Namer, n Node, t *schema.Type, buf []store.Ref) ([]store.Ref, error) {
	switch n.Level {
	case LevelDatabase:
		// The database is the root of every superunit: everything is
		// implicitly covered, no propagation needed.
		return buf, nil
	case LevelSegment:
		for _, rel := range nm.cat.Relations() {
			if rel.Segment == n.Segment {
				buf = st.RefTargets(store.Path{rel.Name}, rel.Type.RefPlan(), buf)
			}
		}
	case LevelRelation:
		if rel := nm.cat.Relation(n.Path.Relation()); rel != nil {
			buf = st.RefTargets(n.Path, rel.Type.RefPlan(), buf)
		}
	case LevelData:
		// A schema-valid path whose instance does not exist (yet) has no
		// dependent inner units — this happens when locking the resource of
		// an object about to be inserted.
		buf = st.RefTargets(n.Path, t.RefPlan(), buf)
	}
	kept := buf[:0]
	for _, r := range buf {
		if n.Level == LevelSegment {
			// Targets stored in the same segment are descendants of the
			// segment node and implicitly covered.
			trel := nm.cat.Relation(r.Relation)
			if trel == nil {
				return nil, fmt.Errorf("core: unknown relation %q", r.Relation)
			}
			if trel.Segment == n.Segment {
				continue
			}
		} else if r.Relation == n.Path[0] && (len(n.Path) == 1 || len(n.Path) == 2 && r.Key == n.Path[1]) {
			// Targets inside the requested node's own subtree are already
			// implicitly covered by a lock on n — possible only with
			// recursive complex objects (a relation or object referencing
			// itself).
			continue
		}
		kept = append(kept, r)
	}
	slices.SortFunc(kept, cmpEntry)
	return slices.Compact(kept), nil
}

// cmpEntryPoint is cmpEntry over resolved entry points.
func cmpEntryPoint(a, b *nameEntry) int {
	return cmpEntry(store.Ref{Relation: a.path[0], Key: a.path[1]}, store.Ref{Relation: b.path[0], Key: b.path[1]})
}

// cmpEntry orders entry points as their Path.String() forms order —
// relation + "/" + key — without building the strings.
func cmpEntry(a, b store.Ref) int {
	ar, br := a.Relation, b.Relation
	if ar == br {
		return strings.Compare(a.Key, b.Key)
	}
	n := min(len(ar), len(br))
	if c := strings.Compare(ar[:n], br[:n]); c != 0 {
		return c
	}
	// One relation name is a proper prefix of the other; in the joined form
	// its next byte is the separator, which no relation name contains.
	if len(ar) == n {
		return cmp.Compare('/', br[n])
	}
	return cmp.Compare(ar[n], '/')
}
