package baseline

import (
	"context"
	"testing"

	"colock/internal/lock"
	"colock/internal/store"
)

func TestReleaseAllPerBaseline(t *testing.T) {
	st, p, mgr := setup(t)
	w := NewWholeObject(p, st)
	if err := w.LockRead(1, store.P("cells", "c1")); err != nil {
		t.Fatal(err)
	}
	w.ReleaseAll(1)
	if mgr.LockCount() != 0 {
		t.Error("WholeObject.ReleaseAll leaked")
	}

	d := NewTraditionalDAG(p, st)
	if err := d.LockWrite(2, store.P("effectors", "e2")); err != nil {
		t.Fatal(err)
	}
	d.ReleaseAll(2)
	if mgr.LockCount() != 0 {
		t.Error("TraditionalDAG.ReleaseAll leaked")
	}

	n := NewNaiveDAG(p, st)
	if err := n.LockThrough(3, store.P("cells", "c1", "robots", "r1", "effectors", "e1"), lock.S); err != nil {
		t.Fatal(err)
	}
	if n.Manager() != mgr {
		t.Error("NaiveDAG.Manager wrong")
	}
	n.ReleaseAll(3)
	if mgr.LockCount() != 0 {
		t.Error("NaiveDAG.ReleaseAll leaked")
	}
}

func TestWholeObjectRelationLevelRequest(t *testing.T) {
	st, p, mgr := setup(t)
	w := NewWholeObject(p, st)
	// A relation-level path falls back to a plain chain lock.
	if err := w.LockRead(1, store.P("effectors")); err != nil {
		t.Fatal(err)
	}
	got := held(mgr, 1)
	if got["db1/seg2/effectors"] != lock.S {
		t.Errorf("relation not S-locked: %v", got)
	}
	w.ReleaseAll(1)
}

func TestWholeObjectSharedDiamondOnce(t *testing.T) {
	st, p, mgr := setup(t)
	w := NewWholeObject(p, st)
	// c1 references e2 twice; the whole-object closure must not loop or
	// double-count.
	before := mgr.Stats()
	if err := w.LockRead(1, store.P("cells", "c1")); err != nil {
		t.Fatal(err)
	}
	d := mgr.Stats().Sub(before)
	// cells chain (db,seg1,cells,c1) + 3 effectors chains (seg2, effectors,
	// e1,e2,e3) = 4 + 2 + 3 = 9 grants.
	if d.Grants != 9 {
		t.Errorf("grants = %d, want 9", d.Grants)
	}
}

func TestBaselineErrorPaths(t *testing.T) {
	st, p, _ := setup(t)
	w := NewWholeObject(p, st)
	if err := w.LockRead(1, store.P("nope", "x")); err == nil {
		t.Error("unknown relation accepted by WholeObject")
	}
	tl := NewTupleLevel(p, st)
	if err := tl.LockRead(1, store.P("cells", "zz")); err == nil {
		t.Error("unknown object accepted by TupleLevel")
	}
	d := NewTraditionalDAG(p, st)
	if err := d.LockRead(1, store.P("nope", "x")); err == nil {
		t.Error("unknown relation accepted by TraditionalDAG")
	}
	n := NewNaiveDAG(p, st)
	if err := n.LockThrough(1, store.P("nope", "x"), lock.X); err == nil {
		t.Error("unknown relation accepted by NaiveDAG")
	}
}

// TestTraditionalDAGFromTheSideIsCorrectButExpensive: unlike NaiveDAG, the
// traditional all-parents discipline IS correct — a from-the-side X conflicts
// with a reader's chain because both meet on the shared node itself.
func TestTraditionalDAGSharedConflictDetected(t *testing.T) {
	st, p, mgr := setup(t)
	d := NewTraditionalDAG(p, st)
	// Reader S-locks effector e2 directly.
	if err := d.LockRead(1, store.P("effectors", "e2")); err != nil {
		t.Fatal(err)
	}
	// Writer's all-parents X on e2 must block.
	if err := mgr.AcquireCtx(context.Background(), 2, "db1/seg2/effectors/e2", lock.X, lock.WithNoWait()); err == nil {
		t.Fatal("X on shared node granted despite reader")
	}
	d.ReleaseAll(1)
}
