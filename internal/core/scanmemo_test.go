package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/store"
)

// Tests of the scan memo (scanMemo, Namer.entryPoints): an S/X lock reuses
// the node's last entry-point scan while the store version has not moved.
// Every mutator must move it; each test below fails when the bump of the
// mutator it drives is deleted.

// memoFixture is the paper database under a protocol, and the robot whose
// memo the tests warm.
type memoFixture struct {
	st    *store.Store
	nm    *Namer
	p     *Protocol
	robot Node
	txn   lock.TxnID
}

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	return &memoFixture{st: st, nm: nm, p: NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{}),
		robot: DataNode(store.P("cells", "c1", "robots", "r1"))}
}

// write runs fn as a committed writer transaction holding X on n.
func (f *memoFixture) write(t *testing.T, n Node, fn func() error) {
	t.Helper()
	f.txn++
	if err := f.p.Lock(f.txn, n, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	f.p.Release(f.txn)
}

// check S-locks the robot in a fresh transaction and compares the
// effectors it then holds S on with the uncached scan of the robot: the
// lock must take exactly the entry points a scan finds now.
func (f *memoFixture) check(t *testing.T, when string) {
	t.Helper()
	f.txn++
	if err := f.p.Lock(f.txn, f.robot, lock.S); err != nil {
		t.Fatal(err)
	}
	defer f.p.Release(f.txn)
	want, err := EntryPointsUnder(f.st, f.nm, f.robot)
	if err != nil {
		t.Fatal(err)
	}
	var got []store.Path
	for _, k := range []string{"e1", "e2", "e3", "e4"} {
		ep := store.P("effectors", k)
		if heldMode(f.p.Manager(), f.txn, mustResource(t, f.nm, DataNode(ep))) == lock.S {
			got = append(got, ep)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: S lock on %v took S on %v, a scan finds %v", when, f.robot, got, want)
	}
}

// TestScanMemoSeesCommittedWrites: a reference another committed
// transaction adds, retargets, removes or brings back between two S locks
// on one robot is S-locked by the second lock — through each mutator.
func TestScanMemoSeesCommittedWrites(t *testing.T) {
	effs := store.P("cells", "c1", "robots", "r1", "effectors")
	e3 := store.Ref{Relation: "effectors", Key: "e3"}
	cell := DataNode(store.P("cells", "c1"))
	for _, tc := range []struct {
		name  string
		steps func(t *testing.T, f *memoFixture)
	}{
		{"AddElem", func(t *testing.T, f *memoFixture) {
			f.write(t, DataNode(effs), func() error { return f.st.AddElem(effs, "e3", e3) })
			f.check(t, "after AddElem")
		}},
		{"SetAtomic", func(t *testing.T, f *memoFixture) {
			f.write(t, DataNode(effs), func() error { _, err := f.st.SetAtomic(effs.Child("e1"), e3); return err })
			f.check(t, "after SetAtomic")
		}},
		{"RemoveElemAndReAdd", func(t *testing.T, f *memoFixture) {
			var old store.Value
			f.write(t, DataNode(effs), func() (err error) { old, err = f.st.RemoveElem(effs, "e1"); return err })
			f.check(t, "after RemoveElem")
			f.write(t, DataNode(effs), func() error { return f.st.AddElem(effs, "e1", old) })
			f.check(t, "after the re-add")
		}},
		{"DeleteAndInsert", func(t *testing.T, f *memoFixture) {
			c1 := f.st.Get("cells", "c1").Clone().(*store.Tuple)
			f.write(t, cell, func() error { f.st.Delete("cells", "c1"); return nil })
			f.check(t, "after Delete")
			c1.Get("robots").(*store.List).Get("r1").(*store.Tuple).Get("effectors").(*store.Set).Add("e3", e3)
			f.write(t, cell, func() error { return f.st.Insert("cells", "c1", c1) })
			f.check(t, "after Insert")
		}},
		{"RestoreData", func(t *testing.T, f *memoFixture) {
			f.write(t, DataNode(effs), func() error { return f.st.AddElem(effs, "e3", e3) })
			backup, err := f.st.EncodeData()
			if err != nil {
				t.Fatal(err)
			}
			f.write(t, DataNode(effs), func() (err error) { _, err = f.st.RemoveElem(effs, "e3"); return err })
			f.check(t, "before RestoreData")
			f.write(t, DatabaseNode(), func() error { return f.st.RestoreData(backup) })
			f.check(t, "after RestoreData")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newMemoFixture(t)
			f.check(t, "before") // warms the robot's memo
			tc.steps(t, f)
		})
	}
}

// TestScanMemoAfterFailedRestore: a RestoreData that fails its integrity
// check swaps the backup in and the old contents back, and a reader may
// scan in between. The swap back must move the version too, or the
// reader's memo of the rejected contents — a reference to the missing
// effector e4 — would outlive them. The reader here runs beside the
// restores without locks, as nothing excludes a scan from that window.
func TestScanMemoAfterFailedRestore(t *testing.T) {
	f := newMemoFixture(t)
	bad := store.PaperDatabase()
	if err := bad.AddElem(store.P("cells", "c1", "robots", "r1", "effectors"), "e4", store.Ref{Relation: "effectors", Key: "e4"}); err != nil {
		t.Fatal(err)
	}
	backup, err := bad.EncodeData()
	if err != nil {
		t.Fatal(err)
	}
	e, err := f.nm.resolve(f.robot)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				close(done)
				return
			default:
			}
			if _, _, err := f.nm.entryPoints(f.robot, e); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if err := f.st.RestoreData(backup); err == nil {
			t.Fatal("RestoreData accepted a backup with a dangling reference")
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	f.check(t, "after the failed restores")
}

// TestScanMemoAboveData: the database, a segment and a relation keep their
// scans in memos too, so two S locks by different transactions at one
// store version share the first one's memo, and it lists what a scan finds.
func TestScanMemoAboveData(t *testing.T) {
	cat, st := nestedCatalogAndStore(t)
	nm := NewNamer(cat, false)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})
	txn := lock.TxnID(0)
	for _, n := range []Node{DatabaseNode(), SegmentNode("s2"), DataNode(store.P("parts"))} {
		e, err := nm.resolve(n)
		if err != nil {
			t.Fatal(err)
		}
		var memos [2]*scanMemo
		for i := range memos {
			txn++
			if err := p.Lock(txn, n, lock.S); err != nil {
				t.Fatal(err)
			}
			p.Release(txn)
			memos[i] = e.scan.Load()
		}
		if memos[0] == nil || memos[0] != memos[1] || memos[0].version.Load() != st.Version() {
			t.Errorf("%v: memos %p and %p of two S locks at store version %d, want one current memo", n, memos[0], memos[1], st.Version())
			continue
		}
		want, err := EntryPointsUnder(st, nm, n)
		if err != nil {
			t.Fatal(err)
		}
		var got []store.Path
		for _, ep := range memos[0].eps {
			got = append(got, ep.path)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: memo lists %v, a scan finds %v", n, got, want)
		}
	}
}

// TestScanMemoSharedWhenEmpty: nodes without entry points share one memo
// per store version, so filling theirs allocates nothing once the version
// has one, and a hit allocates nothing either. A write makes the next fill
// publish a new shared memo.
func TestScanMemoSharedWhenEmpty(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	st, nm, nodes := benchScanNodes(t)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})
	a, b := nodes["robot_empty"], DataNode(store.P("cells", "c0", "robots", "r2"))
	ids, err := st.CollectionIDs(b.Path.Child("effectors"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids { // empty b as benchScanNodes emptied a
		if _, err := st.RemoveElem(b.Path.Child("effectors"), id); err != nil {
			t.Fatal(err)
		}
	}
	memos := func() (*nameEntry, *scanMemo, *scanMemo) {
		t.Helper()
		for txn, n := range []Node{a, b} {
			if err := p.Lock(lock.TxnID(txn+1), n, lock.S); err != nil {
				t.Fatal(err)
			}
			p.Release(lock.TxnID(txn + 1))
		}
		ea, err := nm.resolve(a)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := nm.resolve(b)
		if err != nil {
			t.Fatal(err)
		}
		return ea, ea.scan.Load(), eb.scan.Load()
	}
	ea, ma, mb := memos()
	if ma == nil || ma != mb || ma != nm.noEps.Load() || ma.version.Load() != st.Version() || len(ma.eps) != 0 {
		t.Fatalf("two empty robots' memos %p and %p, shared %p, at version %d: want one empty memo of the current version", ma, mb, nm.noEps.Load(), st.Version())
	}
	fill := testing.AllocsPerRun(100, func() {
		ea.scan.Store(nil)
		if _, _, err := nm.entryPoints(a, ea); err != nil {
			t.Fatal(err)
		}
	})
	hit := testing.AllocsPerRun(100, func() {
		if _, _, err := nm.entryPoints(a, ea); err != nil {
			t.Fatal(err)
		}
	})
	if fill != 0 || hit != 0 {
		t.Errorf("empty robot: %v allocs per memo fill and %v per hit, want 0 and 0", fill, hit)
	}
	if _, err := st.SetAtomic(a.Path.Child("trajectory"), store.Str("moved")); err != nil {
		t.Fatal(err)
	}
	_, ma2, mb2 := memos()
	if ma2 == ma || ma2 != mb2 || ma2.version.Load() != st.Version() {
		t.Errorf("after a write: memos %p and %p (old %p), version %d of %d: want one new shared memo", ma2, mb2, ma, ma2.version.Load(), st.Version())
	}
}

// TestScanMemoRenewedInPlace: a write that leaves a node's references alone
// makes its next scan raise the memo's version, keeping the memo and
// allocating nothing; a write that changes them replaces the memo.
func TestScanMemoRenewedInPlace(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	st, nm, nodes := benchScanNodes(t)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})
	r := nodes["robot_2refs"]
	if err := p.Lock(1, r, lock.S); err != nil {
		t.Fatal(err)
	}
	p.Release(1)
	e, err := nm.resolve(r)
	if err != nil {
		t.Fatal(err)
	}
	m := e.scan.Load()
	if m == nil || len(m.eps) != 2 {
		t.Fatalf("robot_2refs' memo = %+v, want two entry points", m)
	}
	trajectory := [2]store.Value{store.Str("a"), store.Str("b")}
	at := r.Path.Child("trajectory")
	i := 0
	renew := testing.AllocsPerRun(100, func() {
		i++
		if _, err := st.SetAtomic(at, trajectory[i&1]); err != nil {
			t.Fatal(err)
		}
		eps, v, err := nm.entryPoints(r, e)
		if err != nil || len(eps) != 2 || v != st.Version() {
			t.Fatalf("entryPoints = %d entries at version %d, %v; want 2 at %d", len(eps), v, err, st.Version())
		}
	})
	if renew != 0 {
		t.Errorf("%v allocs per write + scan, want 0", renew)
	}
	if got := e.scan.Load(); got != m || m.version.Load() != st.Version() {
		t.Errorf("memo %p at version %d after writes beside the references, want %p at %d", got, m.version.Load(), m, st.Version())
	}
	if _, err := st.RemoveElem(r.Path.Child("effectors"), m.eps[0].path[1]); err != nil {
		t.Fatal(err)
	}
	if eps, _, err := nm.entryPoints(r, e); err != nil || len(eps) != 1 || e.scan.Load() == m {
		t.Errorf("after removing a reference: %d entry points, %v, memo replaced %v; want 1, a new memo", len(eps), err, e.scan.Load() != m)
	}
}

// TestScanMemoStress runs writers that add and remove effector references
// under X against readers that S-lock the robots: after each grant the
// reader must hold S on every effector the robot references. Run it under
// -race.
func TestScanMemoStress(t *testing.T) {
	st, nm, _ := benchScanNodes(t)
	// Rule 4′ with no modify rights makes the writers' downward locks S, so
	// readers and writers meet only on the robots.
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{Rule4Prime: true, Authorizer: authz.DenyAll{}})
	const robots, readers, writers, rounds = 4, 4, 2, 300
	robot := func(i int) store.Path { return store.P("cells", "c0", "robots", fmt.Sprintf("r%d", i)) }
	var next lock.TxnID
	var mu sync.Mutex
	newTxn := func() lock.TxnID {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				effs := robot(rng.Intn(robots)).Child("effectors")
				id := fmt.Sprintf("w%d", rng.Intn(4))
				txn := newTxn()
				err := p.LockPath(txn, effs, lock.X)
				if err == nil {
					if _, err = st.RemoveElem(effs, id); err == nil && rng.Intn(2) == 0 {
						err = st.AddElem(effs, id, store.Ref{Relation: "effectors", Key: fmt.Sprintf("e%d", rng.Intn(64))})
					}
				}
				p.Release(txn)
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < rounds; i++ {
				n := DataNode(robot(rng.Intn(robots)))
				txn := newTxn()
				err := p.Lock(txn, n, lock.S)
				if err == nil {
					err = checkHoldsEntryPoints(st, nm, p.Manager(), txn, n)
				}
				p.Release(txn)
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkHoldsEntryPoints reports an error unless txn holds S on every entry
// point a scan finds below n now.
func checkHoldsEntryPoints(st *store.Store, nm *Namer, mgr *lock.Manager, txn lock.TxnID, n Node) error {
	eps, err := EntryPointsUnder(st, nm, n)
	if err != nil {
		return err
	}
	for _, ep := range eps {
		res, err := nm.Resource(DataNode(ep))
		if err != nil {
			return err
		}
		if m := heldMode(mgr, txn, res); !m.Covers(lock.S) {
			return fmt.Errorf("txn %d holds S on %v but %v on its entry point %v", txn, n, m, ep)
		}
	}
	return nil
}

// TestNamerBindsOneStore: a scan memo describes one store, so a namer
// bound to one panics when a protocol binds it to another.
func TestNamerBindsOneStore(t *testing.T) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	NewProtocol(mgr, st, nm, Options{})
	NewProtocol(mgr, st, nm, Options{Rule4Prime: true})
	defer func() {
		if recover() == nil {
			t.Error("NewProtocol bound a namer to a second store")
		}
	}()
	NewProtocol(mgr, store.PaperDatabase(), nm, Options{})
}
