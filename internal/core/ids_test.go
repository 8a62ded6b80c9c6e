package core

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"colock/internal/lock"
	"colock/internal/store"
)

// Tests for the namer's resource ids: the protocol locks by the ids its
// namer caches, every other caller by name, and both meet in one lock table.

// whenParked runs fn on its own goroutine under a context that reports the
// request parking, and returns fn's result once it has parked.
func whenParked(t *testing.T, fn func(context.Context) error) <-chan error {
	t.Helper()
	parked := make(chan struct{})
	var once sync.Once
	ctx := lock.WithParkNotify(context.Background(), func() { once.Do(func() { close(parked) }) })
	res := make(chan error, 1)
	go func() { res <- fn(ctx) }()
	select {
	case <-parked:
	case err := <-res:
		t.Fatalf("request returned without parking: %v", err)
	}
	return res
}

// TestProtocolAndNamedRequestsConflict: a lock the protocol takes by id and
// a request naming the same resource block each other, in both orders.
func TestProtocolAndNamedRequestsConflict(t *testing.T) {
	p, _ := newProto(t, Options{})
	mgr := p.Manager()
	robot := DataNode(store.P("cells", "c1", "robots", "r1"))
	name := mustResource(t, p.nm, robot)
	ctx := context.Background()

	if err := p.Lock(1, robot, lock.X); err != nil {
		t.Fatal(err)
	}
	named := whenParked(t, func(ctx context.Context) error { return mgr.AcquireCtx(ctx, 2, name, lock.S) })
	p.Release(1)
	if err := <-named; err != nil {
		t.Fatal(err)
	}
	mgr.ReleaseAll(2)

	if err := mgr.AcquireCtx(ctx, 3, name, lock.X); err != nil {
		t.Fatal(err)
	}
	proto := whenParked(t, func(ctx context.Context) error { return p.LockWith(ctx, 4, robot, lock.S, false, false, 0) })
	mgr.ReleaseAll(3)
	if err := <-proto; err != nil {
		t.Fatal(err)
	}
	effector := mustResource(t, p.nm, DataNode(store.P("effectors", "e2")))
	for res, want := range map[lock.Resource]lock.Mode{name: lock.S, "db1/seg1/cells/c1": lock.IS, effector: lock.S} {
		if got := heldMode(mgr, 4, res); got != want {
			t.Errorf("HeldModeID(4, %q) = %v, want %v", res, got, want)
		}
	}
}

// TestNamerBindsOneManager: entries a namer cached before NewProtocol bound
// it lock under their names' ids; a second protocol over the same manager
// shares the namer, one over another manager panics.
func TestNamerBindsOneManager(t *testing.T) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	robot := DataNode(store.P("cells", "c1", "robots", "r1"))
	name := mustResource(t, nm, robot) // cached while unbound
	mgr := lock.NewManager(lock.Options{})
	p := NewProtocol(mgr, st, nm, Options{})
	if err := p.Lock(1, robot, lock.X); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(mgr, 1, name); got != lock.X {
		t.Errorf("HeldModeID(1, %q) = %v, want X", name, got)
	}
	NewProtocol(mgr, st, nm, Options{Rule4Prime: true})
	defer func() {
		if recover() == nil {
			t.Error("NewProtocol bound a namer to a second manager")
		}
	}()
	NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})
}

// TestBoundNamerFirstVisitAllocs: a bound namer's first visit of a path
// interns its name and its new ancestors and costs one allocation more than
// an unbound one (TestNamerFirstVisitAllocs): the entry, its path copy, its
// name and the ancestor ids — the id table's inserts amortize to nothing.
// The database's and the segment's ids are the ones their cached entries
// hold; every deeper ancestor's name is a prefix of the path's own.
func TestBoundNamerFirstVisitAllocs(t *testing.T) {
	const n = 4096
	cat := store.PaperDatabase().Catalog()
	nm := NewNamer(cat, false)
	nm.paths.Store(newPathTable(4 * n))
	mgr := lock.NewManager(lock.Options{})
	nm.bind(mgr, store.New(cat))
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = DataNode(store.P("cells", "c"+strconv.Itoa(i/8), "robots", "r"+strconv.Itoa(i%8), "trajectory"))
	}
	seg := nm.segEntry(cat.Relation("cells").Segment)
	i := 0
	allocs := testing.AllocsPerRun(n-1, func() { // AllocsPerRun adds one warm-up call
		e, err := nm.resolve(nodes[i])
		if err != nil {
			t.Fatal(err)
		}
		if e.ancID[0] != nm.db.id || e.ancID[1] != seg.id {
			t.Fatalf("ancestor ids %v, want the cached database id %d and segment id %d first", e.ancID[:2], nm.db.id, seg.id)
		}
		for _, id := range e.ancID[2:] {
			if a := mgr.Name(id); !strings.HasPrefix(string(e.res), string(a)+"/") {
				t.Fatalf("ancestor %q is not a prefix of %q", a, e.res)
			}
		}
		i++
	})
	if allocs > 4 {
		t.Errorf("first visit of a path by a bound namer allocates %.2f objects, want ≤ 4", allocs)
	}
}
