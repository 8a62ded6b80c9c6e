package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
)

// TestNamerResourceZeroAllocs: the warm naming path must not allocate — the
// whole point of the name cache is that the per-lock-call cost of naming is
// a hash and a map probe.
func TestNamerResourceZeroAllocs(t *testing.T) {
	nm := NewNamer(store.PaperDatabase().Catalog(), true)
	n := DataNode(store.P("cells", "c1", "robots", "r1", "trajectory"))
	if _, err := nm.Resource(n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := nm.Resource(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Resource allocates %.1f objects/op on the warm path, want 0", allocs)
	}
}

// TestNamerChainZeroAllocs covers the protocol-facing entry point: resource
// id, ancestor ids and classification in one warm lookup of a bound namer,
// allocation-free.
func TestNamerChainZeroAllocs(t *testing.T) {
	nm := NewNamer(store.PaperDatabase().Catalog(), false)
	nm.bind(lock.NewManager(lock.Options{}), store.New(nm.Catalog()))
	n := DataNode(store.P("cells", "c1", "robots", "r1"))
	if _, err := nm.resolve(n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := nm.resolve(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("resolve allocates %.1f objects/op on the warm path, want 0", allocs)
	}
}

// resourceUncached is the reference naming the cache is checked against: the
// name built from the schema on every call, as before the name cache.
func resourceUncached(nm *Namer, n Node) (lock.Resource, error) {
	db := nm.cat.Database
	switch n.Level {
	case LevelDatabase:
		return lock.Resource(db), nil
	case LevelSegment:
		return lock.Resource(db + "/" + n.Segment), nil
	}
	rel := nm.cat.Relation(n.Path.Relation())
	if rel == nil {
		return "", fmt.Errorf("core: unknown relation %q", n.Path.Relation())
	}
	if n.Level == LevelRelation || len(n.Path) == 1 {
		return lock.Resource(db + "/" + rel.Segment + "/" + rel.Name), nil
	}
	p := n.Path
	if nm.coalesceBLUs && len(p) >= 3 {
		// If the path addresses an atomic non-ref attribute of a tuple,
		// substitute the shared per-level BLU segment.
		info, err := nm.classifyUncached(p)
		if err != nil {
			return "", err
		}
		if info.Kind == BLU && !info.IsRef {
			p = p.Parent().Child(bluLabel)
		}
	}
	return lock.Resource(db + "/" + rel.Segment + "/" + strings.Join([]string(p), "/")), nil
}

// ancestors is the reference ancestor chain: the immediate parents of a node
// from the database node down to (excluding) the node itself, in
// root-to-leaf order — the order rule 5 prescribes for requesting locks.
//
// Crucially, for a complex-object root of a referenced relation (an entry
// point), the chain is relation → segment → database: the referencing BLU is
// NOT an immediate parent (it is connected by a dashed line, §4.4.1). This
// is exactly the "implicit upward propagation" path of rules 1–4.
func ancestors(nm *Namer, n Node) ([]Node, error) {
	switch n.Level {
	case LevelDatabase:
		return nil, nil
	case LevelSegment:
		return []Node{DatabaseNode()}, nil
	}
	rel := nm.cat.Relation(n.Path.Relation())
	if rel == nil {
		return nil, fmt.Errorf("core: unknown relation %q", n.Path.Relation())
	}
	out := []Node{DatabaseNode(), SegmentNode(rel.Segment)}
	for i := 1; i < len(n.Path); i++ {
		out = append(out, DataNode(n.Path[:i].Clone()))
	}
	return out, nil
}

// ancestorsUncached is the reference ancestor chain by name: ancestors, each
// named by resourceUncached. Like a lock call, it fails for a node the
// schema rules out.
func ancestorsUncached(nm *Namer, n Node) ([]lock.Resource, error) {
	if _, err := resourceUncached(nm, n); err != nil {
		return nil, err
	}
	if n.Level >= LevelRelation {
		if _, err := nm.classifyUncached(n.Path); err != nil {
			return nil, err
		}
	}
	nodes, err := ancestors(nm, n)
	if err != nil {
		return nil, err
	}
	anc := make([]lock.Resource, len(nodes))
	for i, a := range nodes {
		if anc[i], err = resourceUncached(nm, a); err != nil {
			return nil, err
		}
	}
	return anc, nil
}

// TestNamerCacheMatchesUncached: the cached namer must agree byte-for-byte
// with the reference schema walk, for both BLU-coalescing modes — names by
// Resource, and ancestors by the ids a bound namer resolves.
func TestNamerCacheMatchesUncached(t *testing.T) {
	paths := []store.Path{
		store.P("cells"),
		store.P("cells", "c1"),
		store.P("cells", "c1", "robots"),
		store.P("cells", "c1", "robots", "r1"),
		store.P("cells", "c1", "robots", "r1", "trajectory"),
		store.P("cells", "c1", "robots", "r1", "effectors"),
		store.P("cells", "c1", "c_objects", "o1"),
		store.P("effectors", "e2"),
		store.P("effectors", "e2", "tool"),
	}
	for _, coalesce := range []bool{false, true} {
		cached := NewNamer(store.PaperDatabase().Catalog(), coalesce)
		mgr := lock.NewManager(lock.Options{})
		cached.bind(mgr, store.New(cached.Catalog()))
		for _, p := range paths {
			n := DataNode(p)
			cr, cerr := cached.Resource(n)
			lr, lerr := resourceUncached(cached, n)
			if cr != lr || (cerr == nil) != (lerr == nil) {
				t.Errorf("coalesce=%v %v: cached (%q, %v) != reference (%q, %v)",
					coalesce, p, cr, cerr, lr, lerr)
			}
			e, cerr := cached.resolve(n)
			var canc []lock.Resource
			if cerr == nil {
				for _, id := range e.ancID {
					canc = append(canc, mgr.Name(id))
				}
			}
			lanc, lerr := ancestorsUncached(cached, n)
			if (cerr == nil) != (lerr == nil) || len(canc) != len(lanc) {
				t.Errorf("coalesce=%v %v: ancestors differ: cached %v (%v) reference %v (%v)",
					coalesce, p, canc, cerr, lanc, lerr)
				continue
			}
			for i := range canc {
				if canc[i] != lanc[i] {
					t.Errorf("coalesce=%v %v: ancestor %d: %q != %q", coalesce, p, i, canc[i], lanc[i])
				}
			}
		}
	}
}

// TestNamerUnknownRelationNotCached: naming errors for unknown relations
// must not be cached — the catalog is add-only DDL, so a relation may exist
// on the next call.
func TestNamerUnknownRelationNotCached(t *testing.T) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	n := DataNode(store.P("widgets", "w1"))
	if _, err := nm.Resource(n); err == nil {
		t.Fatal("expected unknown-relation error")
	}
	if err := st.Catalog().AddRelation(&schema.Relation{
		Name:    "widgets",
		Segment: "seg1",
		Key:     "widget_id",
		Type:    schema.Tuple(schema.F("widget_id", schema.Str())),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := nm.Resource(n); err != nil {
		t.Errorf("unknown-relation error was cached across DDL: %v", err)
	}
}

// BenchmarkNamerResource measures the warm naming path; run with -benchmem
// to confirm 0 allocs/op (satellite requirement of the fast-path PR).
func BenchmarkNamerResource(b *testing.B) {
	nm := NewNamer(store.PaperDatabase().Catalog(), true)
	n := DataNode(store.P("cells", "c1", "robots", "r1", "trajectory"))
	if _, err := nm.Resource(n); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nm.Resource(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNamerResourceUncached is the contrast: the reference schema walk
// rebuilds the name every call.
func BenchmarkNamerResourceUncached(b *testing.B) {
	nm := NewNamer(store.PaperDatabase().Catalog(), true)
	n := DataNode(store.P("cells", "c1", "robots", "r1", "trajectory"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := resourceUncached(nm, n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNamerFirstVisitAllocs bounds what naming a path for the first time
// costs an unbound namer: the entry, its path copy and one string that the
// whole ancestor chain slices — independent of the path's depth. A run that
// is still meeting new paths pays this per path, so it is kept small; the
// table that indexes the entries is sized beforehand and is not counted.
// (TestBoundNamerFirstVisitAllocs adds the ancestor ids.)
func TestNamerFirstVisitAllocs(t *testing.T) {
	const n = 4096
	nm := NewNamer(store.PaperDatabase().Catalog(), false)
	nm.paths.Store(newPathTable(4 * n))
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = DataNode(store.P("cells", "c"+strconv.Itoa(i/8), "robots", "r"+strconv.Itoa(i%8), "trajectory"))
	}
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() { // AllocsPerRun adds one warm-up call
		if _, err := nm.Resource(nodes[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 3 {
		t.Errorf("first visit of a path allocates %.1f objects, want ≤ 3", allocs)
	}
}

// TestNamerConcurrentFirstVisits: cache hits take no latch, so readers probe
// the path table while writers fill it and replace it with larger ones.
// Eight goroutines of a bound namer name the same 2,000 new paths, each in
// its own order, and classify them by name; every naming must be the one
// entry the cache keeps for its path (same pointer, same id) and agree with
// the reference naming. Run it under -race.
func TestNamerConcurrentFirstVisits(t *testing.T) {
	const workers, paths = 8, 2000
	cat := store.PaperDatabase().Catalog()
	nm := NewNamer(cat, false)
	mgr := lock.NewManager(lock.Options{})
	nm.bind(mgr, store.New(cat))
	nodes := make([]Node, paths)
	for i := range nodes {
		nodes[i] = DataNode(store.P("cells", "c"+strconv.Itoa(i/8), "robots", "r"+strconv.Itoa(i%8)))
	}
	strides := [workers]int{1, 3, 7, 9, 11, 13, 17, 19} // coprime to paths
	got := make([][]*nameEntry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*nameEntry, paths)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < paths; k++ {
				i := (k*strides[w] + w*97) % paths // a different order per worker
				e, err := nm.resolve(nodes[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = e
				if _, err := nm.classifyResource(e.res); err != nil {
					t.Error(err)
					return
				}
				if seg := nm.segEntry("seg" + strconv.Itoa(k%4)); seg != nm.segEntry("seg"+strconv.Itoa(k%4)) {
					t.Errorf("segment entry changed between two lookups")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, n := range nodes {
		want, err := resourceUncached(nm, n)
		if err != nil {
			t.Fatal(err)
		}
		e := got[0][i]
		for w := 1; w < workers; w++ {
			if got[w][i] != e {
				t.Fatalf("%v: workers 0 and %d got different entries", n, w)
			}
		}
		if e.res != want || e.id != mgr.Intern(want) {
			t.Fatalf("%v: cached (%q, id %d), want (%q, id %d)", n, e.res, e.id, want, mgr.Intern(want))
		}
	}
}
