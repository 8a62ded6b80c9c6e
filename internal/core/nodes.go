// Package core implements the paper's primary contribution (Herrmann,
// Dadam, Küspert, Roman, Schlageter: "A Lock Technique for Disjoint and
// Non-Disjoint Complex Objects", EDBT 1990):
//
//   - the general lock graph for complex objects with its three kinds of
//     lockable units — BLU, HoLU, HeLU (§4.2, Figure 4);
//   - object-specific lock graphs derived automatically from relation
//     schemas (§4.3, Figure 5);
//   - the unit analysis: outer and inner units, entry points, immediate
//     parents and superunits (§4.4.1, Figure 6);
//   - the lock protocol with rules 1–5 and the authorization-aware rule 4′,
//     including implicit upward and downward propagation (§4.4.2);
//   - the determination of "optimal" lock requests during query analysis by
//     anticipating lock escalations, stored in query-specific lock graphs
//     (§4.5, after HDKS89).
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
)

// LUKind classifies a lockable unit per the general lock graph (Figure 4).
type LUKind uint8

const (
	// BLU is a basic lockable unit: an atomic attribute value or a
	// reference to common data — the smallest lockable units.
	BLU LUKind = iota
	// HoLU is a homogeneous lockable unit: data of a single type, i.e. a
	// set or a list (including relations, which are sets of complex
	// objects).
	HoLU
	// HeLU is a heterogeneous lockable unit: data composed of different
	// types, i.e. a (complex) tuple. Database and segment nodes are HeLUs
	// (§4.2: "database can be regarded as a HeLU, segments as well").
	HeLU
)

// String returns the paper's abbreviation.
func (k LUKind) String() string {
	switch k {
	case BLU:
		return "BLU"
	case HoLU:
		return "HoLU"
	case HeLU:
		return "HeLU"
	}
	return fmt.Sprintf("LUKind(%d)", uint8(k))
}

// Level identifies where in the lock hierarchy a node lives.
type Level uint8

const (
	// LevelDatabase is the root of every lock hierarchy.
	LevelDatabase Level = iota
	// LevelSegment is a storage segment.
	LevelSegment
	// LevelRelation is a relation node.
	LevelRelation
	// LevelData is a node within a complex object (from the complex-object
	// root tuple downwards), addressed by a store.Path of length ≥ 2.
	LevelData
)

// Node addresses one lockable unit instance: the database, a segment, or a
// data path rooted at a relation.
type Node struct {
	Level   Level
	Segment string     // for LevelSegment
	Path    store.Path // for LevelRelation (len 1) and LevelData (len ≥ 2)
}

// DatabaseNode returns the database node.
func DatabaseNode() Node { return Node{Level: LevelDatabase} }

// SegmentNode returns the node of the named segment.
func SegmentNode(seg string) Node { return Node{Level: LevelSegment, Segment: seg} }

// DataNode returns the node addressed by a store path (relation node for a
// single-segment path).
func DataNode(p store.Path) Node {
	if len(p) == 1 {
		return Node{Level: LevelRelation, Path: p}
	}
	return Node{Level: LevelData, Path: p}
}

// Equal reports whether two nodes address the same lockable unit.
func (n Node) Equal(o Node) bool {
	return n.Level == o.Level && n.Segment == o.Segment && n.Path.Equal(o.Path)
}

// String renders the node for diagnostics.
func (n Node) String() string {
	switch n.Level {
	case LevelDatabase:
		return "<database>"
	case LevelSegment:
		return "segment " + n.Segment
	default:
		return n.Path.String()
	}
}

// Namer maps instance nodes to lock.Resource names. Resource names are the
// slash-joined immediate-parent chains — database/segment/relation/…path —
// so that a resource's prefixes are exactly its immediate parents: "outer
// and inner units as well as superunits have hierarchical structure"
// (§4.4.1).
type Namer struct {
	cat *schema.Catalog
	// coalesceBLUs implements the paper's footnote 3: atomic non-reference
	// attributes of one tuple level share a single BLU ("obj_id and
	// obj_name could form one BLU") instead of one BLU per attribute.
	coalesceBLUs bool

	// The name cache: every concrete data path named once keeps its computed
	// resource string, its id and its root-to-leaf ancestors' ids, and its
	// schema classification, so the naming hot path (protocol upward
	// locking) does no string building, no interning and no schema walk
	// after the first visit. Safe because relation schemas are add-only (a
	// relation, once in the catalog, is never removed or retyped), so a
	// computed name can never go stale; an unknown-relation error is NOT
	// cached, since DDL may add the relation later. Size is bounded by the
	// number of distinct paths named — the same scale as the lock table
	// itself.
	//
	// db is precomputed; segs caches segment entries in a map replaced
	// whole on each addition; paths indexes data entries by an fnv-1a hash
	// of the path segments (pathTable). A cache hit takes no latch, writes
	// nothing and allocates nothing: readers load the two atomic pointers,
	// and only a miss takes mu, which serializes the writers.
	//
	// mgr is the lock manager whose id space the ids belong to, and st the
	// store whose entry points the entries' scan memos list (scanMemo); both
	// nil until NewProtocol binds the namer. noEps is the memo every node
	// without entry points shares, for the store version it names.
	db    *nameEntry
	mgr   *lock.Manager
	st    *store.Store
	segs  atomic.Pointer[map[string]*nameEntry]
	paths atomic.Pointer[pathTable]
	noEps atomic.Pointer[scanMemo]
	_     linePad // keeps the writers' latch off the lines every hit reads
	mu    sync.Mutex
}

// pathTable is the name cache's index of data entries: open addressing with
// linear probing over atomic slots, keyed by pathHash. A published entry is
// never moved or unlinked: a writer (holding Namer.mu) fills a free slot,
// or — past three quarters full — fills a table of twice the size and
// publishes it in place of the old one, which stays intact for readers still
// probing it.
type pathTable struct {
	slots []pathSlot // power-of-two length
	n     int        // entries; read and written under Namer.mu
}

// pathSlot is one slot of a pathTable. The hash sits beside the entry so
// that a probe passes colliding slots without touching their entries; it
// is stored before the entry is published, so a reader that sees the entry
// sees its hash.
type pathSlot struct {
	hash atomic.Uint64
	e    atomic.Pointer[nameEntry]
}

func newPathTable(size int) *pathTable {
	return &pathTable{slots: make([]pathSlot, size)}
}

// put stores e, whose pathHash is h, in its first free slot. Caller holds
// Namer.mu and has made room.
func (t *pathTable) put(h uint64, e *nameEntry) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].e.Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].hash.Store(h)
	t.slots[i].e.Store(e)
	t.n++
}

// nameEntry is the cached naming of one concrete data path, or of the
// database or a segment (no path, no classification).
type nameEntry struct {
	path []string      // owned copy of the path segments (cache key)
	res  lock.Resource // resource name (after BLU coalescing)
	// segEnd is the length of the segment's name, the prefix of a data
	// entry's res before "/" + the path; 0 for the database and segments.
	segEnd int32
	// id and ancID are the resource's id and its ancestors' ids, root to
	// leaf, in the bound manager's id space; set when the entry is cached
	// by a bound namer or when the namer is bound.
	id    lock.ResID
	ancID []lock.ResID
	// typ is the schema type of the addressed value (nil for a relation);
	// the rest of the classification follows from it (info).
	typ *schema.Type
	// infoErr is the (deterministic) classification error for paths whose
	// relation exists but whose shape is invalid; Classify returns it, and
	// Resource does too when coalescing needed the classification.
	infoErr error
	// scan is the last entry-point scan below the node (the database, a
	// segment, a relation, or a data node whose type has a ref plan; nil
	// until the protocol first S/X-locks it).
	scan atomic.Pointer[scanMemo]
}

// info is the entry's classification (zero with infoErr).
func (e *nameEntry) info() NodeInfo {
	switch {
	case e.infoErr != nil:
		return NodeInfo{}
	case e.typ == nil:
		return NodeInfo{Kind: HoLU} // a relation
	}
	return classifyType(e.typ)
}

// NewNamer returns a Namer over the catalog. coalesceBLUs selects the
// footnote-3 BLU granularity (one BLU per tuple level) instead of one BLU
// per atomic attribute.
func NewNamer(cat *schema.Catalog, coalesceBLUs bool) *Namer {
	nm := &Namer{cat: cat, coalesceBLUs: coalesceBLUs}
	nm.db = &nameEntry{res: lock.Resource(cat.Database)}
	nm.segs.Store(&map[string]*nameEntry{})
	nm.paths.Store(newPathTable(64))
	return nm
}

// bind ties the namer to mgr's id space, giving every cached entry its ids,
// and to st, whose entry points the scan memos list. A namer serves one
// manager and one store: binding it to a second of either panics.
func (nm *Namer) bind(mgr *lock.Manager, st *store.Store) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	switch {
	case nm.mgr == mgr && nm.st == st:
		return
	case nm.mgr != nil && nm.mgr != mgr:
		panic("core: namer is already bound to another lock manager")
	case nm.st != nil:
		panic("core: namer is already bound to another store")
	}
	nm.mgr, nm.st = mgr, st
	nm.intern(nm.db)
	for _, e := range *nm.segs.Load() {
		nm.intern(e)
	}
	t := nm.paths.Load()
	for i := range t.slots {
		if e := t.slots[i].e.Load(); e != nil {
			nm.intern(e)
		}
	}
}

// intern sets e's ids in the bound manager's id space. Entries whose shape
// the schema rules out are never locked and get none. The database's and
// the segment's ids come from their cached entries, interned before any
// entry below them; every deeper ancestor's name is a prefix of e.res, so
// the ids cost one allocation beyond interning. Caller holds nm.mu, or owns
// e. (bind interns published entries: it runs in NewProtocol, before the
// namer serves lock calls.)
func (nm *Namer) intern(e *nameEntry) {
	if e.infoErr != nil {
		return
	}
	e.id = nm.mgr.Intern(e.res)
	if e == nm.db {
		return
	}
	e.ancID = append(make([]lock.ResID, 0, len(e.path)+1), nm.db.id)
	if e.segEnd == 0 { // a segment
		return
	}
	end := int(e.segEnd)
	seg := (*nm.segs.Load())[string(e.res[len(nm.db.res)+1:end])]
	e.ancID = append(e.ancID, seg.id)
	for _, seg := range e.path[:len(e.path)-1] {
		end += 1 + len(seg)
		e.ancID = append(e.ancID, nm.mgr.Intern(e.res[:end]))
	}
}

// pathHash is fnv-1a over the path's segments, with a separator byte so
// ["ab","c"] and ["a","bc"] hash apart.
func pathHash(p store.Path) uint64 {
	h := uint64(14695981039346656037)
	for _, seg := range p {
		for i := 0; i < len(seg); i++ {
			h ^= uint64(seg[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

func segsEqual(a []string, b store.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryFor returns the cached naming of p, computing and inserting it on
// first use. Unknown-relation errors are returned without caching.
func (nm *Namer) entryFor(p store.Path) (*nameEntry, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: empty path")
	}
	h := pathHash(p)
	if e := nm.cachedPath(h, p); e != nil {
		return e, nil
	}
	e, err := nm.buildEntry(p)
	if err != nil {
		return nil, err
	}
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if o := nm.cachedPath(h, p); o != nil {
		return o, nil
	}
	if nm.mgr != nil {
		nm.intern(e)
	}
	t := nm.paths.Load()
	if 4*(t.n+1) > 3*len(t.slots) {
		grown := newPathTable(2 * len(t.slots))
		for i := range t.slots {
			if o := t.slots[i].e.Load(); o != nil {
				grown.put(t.slots[i].hash.Load(), o)
			}
		}
		nm.paths.Store(grown)
		t = grown
	}
	t.put(h, e)
	return e, nil
}

// cachedPath returns the cached entry of p, whose pathHash is h, or nil. It
// takes no latch.
func (nm *Namer) cachedPath(h uint64, p store.Path) *nameEntry {
	t := nm.paths.Load()
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i].e.Load()
		if e == nil || t.slots[i].hash.Load() == h && segsEqual(e.path, p) {
			return e
		}
	}
}

// buildEntry computes a nameEntry from the schema (the slow path, once per
// distinct path). Every ancestor's name is a prefix of the path's own name,
// so the entry builds one string: a first visit costs three allocations
// however deep the path is, and a fourth for the ancestor ids (bound namer).
func (nm *Namer) buildEntry(p store.Path) (*nameEntry, error) {
	rel := nm.cat.Relation(p.Relation())
	if rel == nil {
		return nil, fmt.Errorf("core: unknown relation %q", p.Relation())
	}
	e := &nameEntry{path: append([]string(nil), p...)}
	info, err := nm.classifyUncached(p)
	e.typ, e.infoErr = info.Type, err
	seg := nm.segEntry(rel.Segment).res
	var buf [8]string // stays on the stack for paths up to seven segments deep
	parts := append(append(buf[:0], string(seg)), p...)
	if nm.coalesceBLUs && len(p) >= 3 && err == nil && info.Kind == BLU && !info.IsRef {
		parts[len(p)] = bluLabel
	}
	e.res = lock.Resource(strings.Join(parts, "/"))
	e.segEnd = int32(len(seg))
	return e, nil
}

// segEntry returns the cached entry of a segment.
func (nm *Namer) segEntry(seg string) *nameEntry {
	if e := (*nm.segs.Load())[seg]; e != nil {
		return e
	}
	nm.mu.Lock()
	defer nm.mu.Unlock()
	old := *nm.segs.Load()
	if e := old[seg]; e != nil {
		return e
	}
	e := &nameEntry{res: lock.Resource(nm.cat.Database + "/" + seg)}
	if nm.mgr != nil {
		nm.intern(e)
	}
	grown := make(map[string]*nameEntry, len(old)+1)
	for k, v := range old {
		grown[k] = v
	}
	grown[seg] = e
	nm.segs.Store(&grown)
	return e
}

// resolve returns the naming of n the protocol locks with: its resource
// name and id, and its ancestors' ids in root-to-leaf order — served from
// the cache with zero allocations after the first visit — and, for a data
// node, its schema type in typ. A data path whose shape the schema rules
// out gets its (cached) classification error. The namer must be bound; the
// entry is shared and must not be modified.
func (nm *Namer) resolve(n Node) (*nameEntry, error) {
	switch n.Level {
	case LevelDatabase:
		return nm.db, nil
	case LevelSegment:
		return nm.segEntry(n.Segment), nil
	}
	e, err := nm.entryFor(n.Path)
	if err == nil {
		err = e.infoErr
	}
	return e, err
}

// Catalog returns the catalog the namer was built over.
func (nm *Namer) Catalog() *schema.Catalog { return nm.cat }

// blulabel is the synthetic path segment naming a coalesced per-level BLU.
const bluLabel = "#attrs"

// Resource returns the lock resource name for a node. Data-path names are
// served from the name cache (zero allocations after a path's first visit).
func (nm *Namer) Resource(n Node) (lock.Resource, error) {
	switch n.Level {
	case LevelDatabase:
		return nm.db.res, nil
	case LevelSegment:
		return nm.segEntry(n.Segment).res, nil
	}
	e, err := nm.entryFor(n.Path)
	if err != nil {
		return "", err
	}
	if nm.coalesceBLUs && len(n.Path) >= 3 && e.infoErr != nil {
		// Coalescing needed the classification (pre-cache behavior: the
		// Classify error surfaced through Resource).
		return "", e.infoErr
	}
	return e.res, nil
}

// NodeInfo describes the lockable unit a data path addresses.
type NodeInfo struct {
	Kind LUKind
	// Type is the schema type of the addressed value (nil for coalesced
	// positions that do not correspond to a schema node).
	Type *schema.Type
	// IsRef reports whether the node is a reference BLU.
	IsRef bool
	// RefTarget is the referenced relation for reference BLUs.
	RefTarget string
}

// Classify determines the lockable-unit kind of a data path by walking the
// relation's schema: relations and collections are HoLUs, tuples are HeLUs,
// atomic attributes and references are BLUs (§4.3 derivation rules). The
// walk is memoized per path in the name cache (classification errors for a
// known relation are deterministic — relation types are immutable once in
// the catalog — so they are memoized too).
func (nm *Namer) Classify(p store.Path) (NodeInfo, error) {
	if len(p) == 0 {
		return NodeInfo{}, fmt.Errorf("core: empty path")
	}
	e, err := nm.entryFor(p)
	if err != nil {
		return NodeInfo{}, err
	}
	if e.infoErr != nil {
		return NodeInfo{}, e.infoErr
	}
	return e.info(), nil
}

// classifyResource is Classify for a data node given by its resource name
// (database/segment/relation/key/…). A name this namer produced is answered
// from the name cache without splitting it: pathHash is folded straight off
// the string and the table probed for the entry carrying that name.
func (nm *Namer) classifyResource(r lock.Resource) (NodeInfo, error) {
	_, rest, _ := strings.Cut(string(r), "/")
	_, tail, ok := strings.Cut(rest, "/")
	if !ok {
		return NodeInfo{}, fmt.Errorf("core: %q is not a data resource", r)
	}
	h := uint64(14695981039346656037)
	for i := 0; i <= len(tail); i++ {
		c := uint64(0xff) // segment separator, and terminator
		if i < len(tail) && tail[i] != '/' {
			c = uint64(tail[i])
		}
		h = (h ^ c) * 1099511628211
	}
	t := nm.paths.Load()
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i].e.Load()
		if e == nil {
			break
		}
		if t.slots[i].hash.Load() == h && e.res == r {
			return e.info(), e.infoErr
		}
	}
	return nm.Classify(store.Path(strings.Split(tail, "/")))
}

// classifyUncached is the memo-free schema walk backing Classify.
func (nm *Namer) classifyUncached(p store.Path) (NodeInfo, error) {
	if len(p) == 0 {
		return NodeInfo{}, fmt.Errorf("core: empty path")
	}
	rel := nm.cat.Relation(p.Relation())
	if rel == nil {
		return NodeInfo{}, fmt.Errorf("core: unknown relation %q", p.Relation())
	}
	if len(p) == 1 {
		// The relation: a set of complex objects — a HoLU.
		return NodeInfo{Kind: HoLU, Type: nil}, nil
	}
	// p[1] is a complex-object key; the object is the relation's tuple type.
	t := rel.Type
	for i := 2; i < len(p); i++ {
		seg := p[i]
		switch t.Kind {
		case schema.KindTuple:
			ft := t.Field(seg)
			if ft == nil {
				return NodeInfo{}, fmt.Errorf("core: path %q: no field %q", p.String(), seg)
			}
			t = ft
		case schema.KindSet, schema.KindList:
			// seg is an element ID; the type descends to the element type.
			t = t.Elem
		default:
			return NodeInfo{}, fmt.Errorf("core: path %q: cannot descend into %v at %q", p.String(), t.Kind, seg)
		}
	}
	return classifyType(t), nil
}

func classifyType(t *schema.Type) NodeInfo {
	switch t.Kind {
	case schema.KindSet, schema.KindList:
		return NodeInfo{Kind: HoLU, Type: t}
	case schema.KindTuple:
		return NodeInfo{Kind: HeLU, Type: t}
	case schema.KindRef:
		return NodeInfo{Kind: BLU, Type: t, IsRef: true, RefTarget: t.Target}
	default:
		return NodeInfo{Kind: BLU, Type: t}
	}
}
