package baseline

import (
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
)

// setup builds the paper's database and a protocol over a fresh manager,
// with the fast path off as in the experiments: every chain request reaches
// the manager.
func setup(t *testing.T) (*store.Store, *core.Protocol, *lock.Manager) {
	t.Helper()
	st := store.PaperDatabase()
	mgr := lock.NewManager(lock.Options{})
	return st, core.NewProtocol(mgr, st, core.NewNamer(st.Catalog(), false), core.Options{DisableFastPath: true}), mgr
}

func held(mgr *lock.Manager, txn lock.TxnID) map[string]lock.Mode {
	out := make(map[string]lock.Mode)
	for _, h := range mgr.HeldLocks(txn) {
		out[string(h.Resource)] = h.Mode
	}
	return out
}

// TestWholeObjectLocksEverything: accessing one robot locks the whole cell
// AND the whole effectors objects it references.
func TestWholeObjectLocksEverything(t *testing.T) {
	st, p, mgr := setup(t)
	w := NewWholeObject(p, st)
	if err := w.LockWrite(7, store.P("cells", "c1", "robots", "r1")); err != nil {
		t.Fatal(err)
	}
	got := held(mgr, 7)
	if got["db1/seg1/cells/c1"] != lock.X {
		t.Errorf("object not X-locked: %v", got)
	}
	// ALL effectors of the cell (not just r1's) are X-locked wholly.
	for _, e := range []string{"e1", "e2", "e3"} {
		if got["db1/seg2/effectors/"+e] != lock.X {
			t.Errorf("common data %s not locked: %v", e, got)
		}
	}
	// No finer granules below the object.
	if _, ok := got["db1/seg1/cells/c1/robots/r1"]; ok {
		t.Error("whole-object baseline took part locks")
	}
}

// TestWholeObjectSerializesDisjointParts: the granule-oriented problem —
// Q1-style reader of c_objects and Q2-style updater of robots conflict even
// though they touch disjoint parts.
func TestWholeObjectSerializesDisjointParts(t *testing.T) {
	st, p, _ := setup(t)
	w := NewWholeObject(p, st)
	if err := w.LockRead(1, store.P("cells", "c1", "c_objects")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.LockWrite(2, store.P("cells", "c1", "robots", "r1")) }()
	select {
	case err := <-done:
		t.Fatalf("whole-object baseline allowed disjoint concurrency: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	w.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	w.ReleaseAll(2)
}

// TestCoreAllowsDisjointParts: the same two accesses run concurrently under
// the paper's protocol.
func TestCoreAllowsDisjointParts(t *testing.T) {
	_, p, _ := setup(t)
	c := Core{Proto: p}
	if c.Name() != "colock" {
		t.Error("name")
	}
	if err := c.LockRead(1, store.P("cells", "c1", "c_objects")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.LockWrite(2, store.P("cells", "c1", "robots", "r1")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("core protocol serialized disjoint parts")
	}
	c.ReleaseAll(1)
	c.ReleaseAll(2)
}

// TestTupleLevelLockCount: tuple-level locking of cell c1 produces one lock
// per tuple — root, c_object o1, robots r1 and r2, and the three referenced
// effectors — plus intention locks, far more than the single object lock of
// XSQL.
func TestTupleLevelLockCount(t *testing.T) {
	st, p, mgr := setup(t)
	tl := NewTupleLevel(p, st)
	if err := tl.LockRead(7, store.P("cells", "c1")); err != nil {
		t.Fatal(err)
	}
	got := held(mgr, 7)
	for _, r := range []string{
		"db1/seg1/cells/c1",
		"db1/seg1/cells/c1/c_objects/o1",
		"db1/seg1/cells/c1/robots/r1",
		"db1/seg1/cells/c1/robots/r2",
		"db1/seg2/effectors/e1",
		"db1/seg2/effectors/e2",
		"db1/seg2/effectors/e3",
	} {
		if got[r] != lock.S {
			t.Errorf("tuple %s not S-locked: %v", r, got)
		}
	}
	// 7 tuples + IS on db, seg1, cells, robots(no — robots is a list, the
	// chain passes through c1/robots for r1/r2), c_objects, seg2, effectors.
	if len(got) < 13 {
		t.Errorf("suspiciously few locks for tuple-level: %d: %v", len(got), got)
	}
}

func TestTupleLevelOnBLUSubtree(t *testing.T) {
	st, p, mgr := setup(t)
	tl := NewTupleLevel(p, st)
	// A subtree without tuples (an atomic BLU): the node itself is locked.
	if err := tl.LockWrite(7, store.P("cells", "c1", "robots", "r1", "trajectory")); err != nil {
		t.Fatal(err)
	}
	got := held(mgr, 7)
	if got["db1/seg1/cells/c1/robots/r1/trajectory"] != lock.X {
		t.Errorf("BLU not locked: %v", got)
	}
}

func TestTupleLevelRelationScan(t *testing.T) {
	st, p, mgr := setup(t)
	tl := NewTupleLevel(p, st)
	if err := tl.LockRead(7, store.P("effectors")); err != nil {
		t.Fatal(err)
	}
	got := held(mgr, 7)
	for _, e := range []string{"e1", "e2", "e3"} {
		if got["db1/seg2/effectors/"+e] != lock.S {
			t.Errorf("effector %s not locked", e)
		}
	}
}

// TestTraditionalDAGSharedXCost: X-locking shared effector e2 requires
// reverse-scanning the database and locking both referencing robots' chains.
func TestTraditionalDAGSharedXCost(t *testing.T) {
	st, p, mgr := setup(t)
	d := NewTraditionalDAG(p, st)
	st.ResetScanCount()
	if err := d.LockWrite(9, store.P("effectors", "e2")); err != nil {
		t.Fatal(err)
	}
	if st.ScanCount() == 0 {
		t.Error("no reverse scan performed")
	}
	got := held(mgr, 9)
	if got["db1/seg2/effectors/e2"] != lock.X {
		t.Errorf("target not X: %v", got)
	}
	// Both referencing ref-BLUs and their chains are IX-locked.
	if got["db1/seg1/cells/c1/robots/r1/effectors/e2"] != lock.IX ||
		got["db1/seg1/cells/c1/robots/r2/effectors/e2"] != lock.IX {
		t.Errorf("parents not IX-locked: %v", got)
	}
	if got["db1/seg1/cells/c1"] != lock.IX {
		t.Errorf("parent chain not locked: %v", got)
	}
}

// TestTraditionalDAGUnsharedXIsCheap: X on an unreferenced object needs no
// parent hunt beyond its own chain.
func TestTraditionalDAGUnsharedXIsCheap(t *testing.T) {
	st, p, mgr := setup(t)
	d := NewTraditionalDAG(p, st)
	if err := d.LockWrite(9, store.P("cells", "c1", "c_objects", "o1")); err != nil {
		t.Fatal(err)
	}
	got := held(mgr, 9)
	if got["db1/seg1/cells/c1/c_objects/o1"] != lock.X {
		t.Errorf("target not X: %v", got)
	}
	if len(got) != 6 { // db, seg1, cells, c1, c_objects, o1
		t.Errorf("lock count = %d: %v", len(got), got)
	}
	if err := d.LockRead(9, store.P("effectors", "e1")); err != nil {
		t.Fatal(err)
	}
}

// TestNaiveDAGMissesFromTheSideConflict demonstrates §3.2.2: two
// transactions claim the same shared effector through different paths and
// BOTH succeed — the conflict is invisible, unlike under the core protocol.
func TestNaiveDAGMissesFromTheSideConflict(t *testing.T) {
	st, p, mgr := setup(t)
	n := NewNaiveDAG(p, st)
	if n.Name() != "naive-dag-unsafe" {
		t.Error("name")
	}
	// T1 "X-locks" e2 via robot r1's reference.
	if err := n.LockThrough(1, store.P("cells", "c1", "robots", "r1", "effectors", "e2"), lock.X); err != nil {
		t.Fatal(err)
	}
	// T2 "X-locks" the same e2 via robot r2's reference — granted!
	if err := n.LockThrough(2, store.P("cells", "c1", "robots", "r2", "effectors", "e2"), lock.X); err != nil {
		t.Fatalf("naive DAG detected the conflict (it should not): %v", err)
	}
	if mgr.Stats().Waits != 0 {
		t.Error("unexpected wait")
	}
	// Oracle: both transactions now hold what they believe is exclusive
	// access to effectors/e2 — a synchronization violation.
	n.ReleaseAll(1)
	n.ReleaseAll(2)
}
