package txn

import (
	"context"
	"strings"
	"testing"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
)

func TestLockPathNoFollowSkipsLibrary(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	defer tx.Abort()
	if err := tx.LockPath(nil, store.P("cells", "c1", "robots", "r1"), lock.X, WithNoFollow()); err != nil {
		t.Fatal(err)
	}
	for _, h := range m.Protocol().Manager().HeldLocks(tx.ID()) {
		if strings.Contains(string(h.Resource), "effectors") {
			t.Errorf("NOFOLLOW locked %s", h.Resource)
		}
	}
	// On a finished transaction it refuses.
	tx.Abort()
	if err := tx.LockPath(nil, store.P("cells", "c1"), lock.S, WithNoFollow()); err == nil {
		t.Error("NOFOLLOW on finished txn accepted")
	}
}

func TestTxnDeEscalateAndUnlock(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	obj := store.P("cells", "c1")
	if err := tx.LockPath(nil, obj, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeEscalate(core.DataNode(obj), []store.Path{
		store.P("cells", "c1", "c_objects"),
	}); err != nil {
		t.Fatal(err)
	}
	mgr := m.Protocol().Manager()
	mode := mgr.HeldModeID(tx.ID(), mgr.Intern("db1/seg1/cells/c1"))
	if mode != lock.IX {
		t.Errorf("after de-escalation object holds %v", mode)
	}
	if err := tx.Unlock(core.DataNode(store.P("cells", "c1", "c_objects"))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Finished transactions refuse both.
	if err := tx.DeEscalate(core.DataNode(obj), nil); err == nil {
		t.Error("DeEscalate on finished txn accepted")
	}
	if err := tx.Unlock(core.DataNode(obj)); err == nil {
		t.Error("Unlock on finished txn accepted")
	}
}

func TestAddRemoveElemAt(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	coll := store.P("cells", "c1", "robots", "r1", "effectors")

	// Without coverage both refuse.
	if err := tx.AddElemAt(coll, "e3", store.Ref{Relation: "effectors", Key: "e3"}); err == nil {
		t.Error("uncovered AddElemAt accepted")
	}
	if err := tx.RemoveElemAt(coll, "e1"); err == nil {
		t.Error("uncovered RemoveElemAt accepted")
	}

	if err := tx.LockPath(nil, coll, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddElemAt(coll, "e3", store.Ref{Relation: "effectors", Key: "e3"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.RemoveElemAt(coll, "e1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.RemoveElemAt(coll, "absent"); err != nil {
		t.Fatal(err) // removing an absent element is a no-op
	}
	// Errors from the store propagate (duplicate add).
	if err := tx.AddElemAt(coll, "e3", store.Ref{Relation: "effectors", Key: "e3"}); err == nil {
		t.Error("duplicate AddElemAt accepted")
	}
	tx.Abort()
	// Undo restored the original collection.
	ids, err := m.Store().CollectionIDs(coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "e1" || ids[1] != "e2" {
		t.Errorf("after abort: %v", ids)
	}
}

func TestMutationsOnFinishedTxn(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	coll := store.P("cells", "c1", "robots", "r1", "effectors")
	if err := tx.AddElem(coll, "x", store.Ref{Relation: "effectors", Key: "e1"}); err == nil {
		t.Error("AddElem on finished txn accepted")
	}
	if err := tx.RemoveElem(coll, "e1"); err == nil {
		t.Error("RemoveElem on finished txn accepted")
	}
	if err := tx.Insert("effectors", "zz", store.NewTuple()); err == nil {
		t.Error("Insert on finished txn accepted")
	}
	if err := tx.Delete("effectors", "e1"); err == nil {
		t.Error("Delete on finished txn accepted")
	}
	if err := tx.Lock(nil, core.DataNode(store.P("cells", "c1")), lock.S); err == nil {
		t.Error("Lock on finished txn accepted")
	}
	if _, err := tx.ReadAt(store.P("cells", "c1")); err == nil {
		t.Error("ReadAt on finished txn accepted")
	}
	if err := tx.UpdateAtomicAt(store.P("effectors", "e1", "tool"), store.Str("x")); err == nil {
		t.Error("UpdateAtomicAt on finished txn accepted")
	}
}

func TestInsertDeleteStoreErrorsPropagate(t *testing.T) {
	m := newManager(t)
	tx := m.Begin()
	defer tx.Abort()
	// Insert of a non-conforming object fails after the lock was taken.
	if err := tx.Insert("effectors", "e9", store.NewTuple()); err == nil {
		t.Error("invalid insert accepted")
	}
	// Duplicate insert fails.
	dup := store.NewTuple().Set("eff_id", store.Str("e1")).Set("tool", store.Str("t"))
	if err := tx.Insert("effectors", "e1", dup); err == nil {
		t.Error("duplicate insert accepted")
	}
	// Delete of an absent object is a no-op.
	if err := tx.Delete("effectors", "zz"); err != nil {
		t.Fatal(err)
	}
	// Bad paths propagate.
	if err := tx.UpdateAtomic(store.P("cells", "c1", "nope"), store.Str("x")); err == nil {
		t.Error("bad update path accepted")
	}
	if err := tx.AddElem(store.P("cells", "c1", "cell_id"), "x", store.Str("v")); err == nil {
		t.Error("AddElem on atomic accepted")
	}
	if _, err := tx.Read(store.P("cells", "zz", "cell_id")); err == nil {
		t.Error("read of absent object accepted")
	}
}

func TestRunWithRetryDefaultAttempts(t *testing.T) {
	m := newManager(t)
	calls := 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}
