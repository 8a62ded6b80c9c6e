// Package baseline implements the lock techniques the paper compares
// against (§3):
//
//   - TupleLevel: System R style locking of each single tuple of a complex
//     object individually — fine concurrency, "immense overhead caused by
//     the administration of locks and conflict tests" (§3.2.1);
//   - WholeObject: XSQL style locking of complex objects as a whole,
//     including existing common data — cheap, but "prohibits a high degree
//     of concurrency" (§3.2.1);
//   - TraditionalDAG: the straightforward application of the DAG protocol
//     to non-disjoint objects — to lock a node within shared data
//     exclusively, ALL parent nodes must be determined (an expensive
//     reverse scan) and locked (§3.2.2);
//   - NaiveDAG: the unsafe variant that treats references like ordinary
//     hierarchy edges and relies on implicit locks along one access path —
//     transactions arriving "from the side" do not see those locks, and the
//     database can be transformed into an inconsistent state (§3.2.2). It
//     exists to demonstrate the protocol-oriented problem in E4.
//
// All baselines lock their chains through the core protocol's one chain
// path with propagation off, so metrics (lock counts, conflicts, waits)
// compare the techniques, not two implementations.
package baseline

import (
	"context"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
)

// Locker is the uniform interface the benchmark harness drives: lock the
// subtree at a path for reading or writing, then release at EOT.
type Locker interface {
	Name() string
	LockRead(txn lock.TxnID, p store.Path) error
	LockWrite(txn lock.TxnID, p store.Path) error
	ReleaseAll(txn lock.TxnID)
	Manager() *lock.Manager
}

// Core adapts the paper's protocol to the Locker interface.
type Core struct {
	Proto *core.Protocol
}

// Name implements Locker.
func (c Core) Name() string { return "colock" }

// LockRead implements Locker.
func (c Core) LockRead(txn lock.TxnID, p store.Path) error {
	return c.Proto.LockPath(txn, p, lock.S)
}

// LockWrite implements Locker.
func (c Core) LockWrite(txn lock.TxnID, p store.Path) error {
	return c.Proto.LockPath(txn, p, lock.X)
}

// ReleaseAll implements Locker.
func (c Core) ReleaseAll(txn lock.TxnID) { c.Proto.Release(txn) }

// Manager implements Locker.
func (c Core) Manager() *lock.Manager { return c.Proto.Manager() }

// hierarchy holds what every baseline needs: the protocol whose chain path
// takes its locks, and the store for reference scans.
type hierarchy struct {
	p  *core.Protocol
	st *store.Store
}

// lockChain intention-locks the ancestors of a node root-to-leaf and then
// locks the node itself in the given mode — the protocol's chain with
// noFollow set, one batch and no propagation of any kind: the traditional
// DAG rule.
func (h *hierarchy) lockChain(txn lock.TxnID, n core.Node, mode lock.Mode) error {
	return h.p.LockWith(context.Background(), txn, n, mode, false, true, 0)
}

// Manager implements Locker.
func (h *hierarchy) Manager() *lock.Manager { return h.p.Manager() }

// ReleaseAll implements Locker.
func (h *hierarchy) ReleaseAll(txn lock.TxnID) { h.p.Release(txn) }

// WholeObject is the XSQL-style baseline: any access to a part of a complex
// object locks the whole object — and, because common data belongs to the
// object from the application's point of view, the referenced complex
// objects as well, in the same mode.
type WholeObject struct {
	hierarchy
}

// NewWholeObject builds the whole-object baseline.
func NewWholeObject(p *core.Protocol, st *store.Store) *WholeObject {
	return &WholeObject{hierarchy{p: p, st: st}}
}

// Name implements Locker.
func (w *WholeObject) Name() string { return "xsql-whole-object" }

// LockRead implements Locker.
func (w *WholeObject) LockRead(txn lock.TxnID, p store.Path) error {
	return w.lockWhole(txn, p, lock.S)
}

// LockWrite implements Locker.
func (w *WholeObject) LockWrite(txn lock.TxnID, p store.Path) error {
	return w.lockWhole(txn, p, lock.X)
}

func (w *WholeObject) lockWhole(txn lock.TxnID, p store.Path, mode lock.Mode) error {
	if len(p) < 2 {
		return w.lockChain(txn, core.DataNode(p), mode)
	}
	return w.lockObjectRec(txn, p[:2], mode, map[string]bool{})
}

func (w *WholeObject) lockObjectRec(txn lock.TxnID, obj store.Path, mode lock.Mode, seen map[string]bool) error {
	key := obj.String()
	if seen[key] {
		return nil
	}
	seen[key] = true
	if err := w.lockChain(txn, core.DataNode(obj), mode); err != nil {
		return err
	}
	refs, err := w.st.Refs(obj)
	if err != nil {
		return err
	}
	for _, r := range refs {
		if err := w.lockObjectRec(txn, store.P(r.Target.Relation, r.Target.Key), mode, seen); err != nil {
			return err
		}
	}
	return nil
}

// TupleLevel is the System R-style baseline: every tuple (HeLU instance) of
// the accessed part of a complex object is locked individually, common data
// included. One lock per tuple is fine-grained but administratively heavy.
type TupleLevel struct {
	hierarchy
}

// NewTupleLevel builds the tuple-level baseline.
func NewTupleLevel(p *core.Protocol, st *store.Store) *TupleLevel {
	return &TupleLevel{hierarchy{p: p, st: st}}
}

// Name implements Locker.
func (t *TupleLevel) Name() string { return "systemr-tuple" }

// LockRead implements Locker.
func (t *TupleLevel) LockRead(txn lock.TxnID, p store.Path) error {
	return t.lockTuples(txn, p, lock.S)
}

// LockWrite implements Locker.
func (t *TupleLevel) LockWrite(txn lock.TxnID, p store.Path) error {
	return t.lockTuples(txn, p, lock.X)
}

func (t *TupleLevel) lockTuples(txn lock.TxnID, p store.Path, mode lock.Mode) error {
	if len(p) < 2 {
		// A relation-level request degenerates to locking every object's
		// tuples.
		for _, key := range t.st.Keys(p.Relation()) {
			if err := t.lockTuples(txn, store.P(p.Relation(), key), mode); err != nil {
				return err
			}
		}
		return nil
	}
	return t.lockTuplesRec(txn, p, mode, map[string]bool{})
}

func (t *TupleLevel) lockTuplesRec(txn lock.TxnID, p store.Path, mode lock.Mode, seen map[string]bool) error {
	if seen[p.String()] {
		return nil
	}
	seen[p.String()] = true

	tuples, refs, err := tuplesUnder(t.st, p)
	if err != nil {
		return err
	}
	if len(tuples) == 0 {
		// The subtree contains no tuple node (e.g. a BLU): lock the node
		// itself, tuple-record style.
		tuples = []store.Path{p}
	}
	for _, tp := range tuples {
		if err := t.lockChain(txn, core.DataNode(tp), mode); err != nil {
			return err
		}
	}
	for _, r := range refs {
		if err := t.lockTuplesRec(txn, store.P(r.Target.Relation, r.Target.Key), mode, seen); err != nil {
			return err
		}
	}
	return nil
}

// tuplesUnder enumerates the HeLU (tuple) instance paths in the subtree at
// p, plus the references found there.
func tuplesUnder(st *store.Store, p store.Path) ([]store.Path, []store.RefAt, error) {
	// Traverse a private copy: Lookup returns live structures that may be
	// mutated concurrently under other transactions' locks.
	v, err := st.LookupClone(p)
	if err != nil {
		return nil, nil, err
	}
	var tuples []store.Path
	var refs []store.RefAt
	var rec func(val store.Value, at store.Path)
	rec = func(val store.Value, at store.Path) {
		switch x := val.(type) {
		case store.Ref:
			refs = append(refs, store.RefAt{Path: at.Clone(), Target: x})
		case *store.Tuple:
			tuples = append(tuples, at.Clone())
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
	rec(v, p)
	return tuples, refs, nil
}

// TraditionalDAG applies the classic DAG protocol directly to non-disjoint
// objects. Within non-shared data it behaves like hierarchical locking
// without propagation; to lock a node of SHARED data exclusively it must
// first determine and IX-lock ALL parents — every referencing node — via a
// reverse scan of the database (§3.2.2).
type TraditionalDAG struct {
	hierarchy
}

// NewTraditionalDAG builds the traditional-DAG baseline.
func NewTraditionalDAG(p *core.Protocol, st *store.Store) *TraditionalDAG {
	return &TraditionalDAG{hierarchy{p: p, st: st}}
}

// Name implements Locker.
func (d *TraditionalDAG) Name() string { return "traditional-dag" }

// LockRead implements Locker: plain hierarchical S.
func (d *TraditionalDAG) LockRead(txn lock.TxnID, p store.Path) error {
	return d.lockChain(txn, core.DataNode(p), lock.S)
}

// LockWrite implements Locker: within non-shared data a plain hierarchical
// X; on a shared complex object the full all-parents discipline.
func (d *TraditionalDAG) LockWrite(txn lock.TxnID, p store.Path) error {
	if len(p) == 2 && d.isShared(p) {
		return d.LockSharedX(txn, p.Relation(), p.Key())
	}
	return d.lockChain(txn, core.DataNode(p), lock.X)
}

// isShared reports whether any reference in the database points at the
// object (this check itself costs a reverse scan, which is the point).
func (d *TraditionalDAG) isShared(p store.Path) bool {
	return len(d.st.BackRefs(p.Relation(), p.Key())) > 0
}

// LockSharedX locks a shared complex object exclusively under the
// traditional DAG rule: all parent nodes — every reference BLU and its
// ancestor chain — must be IX-locked before the X lock may be requested.
// The reverse scan that finds the parents is metered by the store.
func (d *TraditionalDAG) LockSharedX(txn lock.TxnID, relation, key string) error {
	backs := d.st.BackRefs(relation, key)
	for _, b := range backs {
		if err := d.lockChain(txn, core.DataNode(b.RefPath), lock.IX); err != nil {
			return err
		}
	}
	return d.lockChain(txn, core.DataNode(store.P(relation, key)), lock.X)
}

// NaiveDAG is the UNSAFE straw-man of §3.2.2: it treats a reference like an
// ordinary parent-child edge and records locks on shared data under
// path-dependent resource names ("within the first graph"). Two
// transactions reaching the same shared node via different references get
// different resource names, so their conflict is invisible. It exists only
// to demonstrate the protocol-oriented problem (experiment E4) — do not use
// it to protect data.
type NaiveDAG struct {
	hierarchy
}

// NewNaiveDAG builds the unsafe demonstration baseline.
func NewNaiveDAG(p *core.Protocol, st *store.Store) *NaiveDAG {
	return &NaiveDAG{hierarchy{p: p, st: st}}
}

// Name identifies the baseline.
func (n *NaiveDAG) Name() string { return "naive-dag-unsafe" }

// LockThrough locks the chain down to a reference BLU and claims the
// referenced data implicitly through it. The resource for the shared object
// is derived from the ACCESS PATH, which is exactly the bug: another path to
// the same object yields another resource.
func (n *NaiveDAG) LockThrough(txn lock.TxnID, refPath store.Path, mode lock.Mode) error {
	if err := n.lockChain(txn, core.DataNode(refPath), mode); err != nil {
		return err
	}
	// The "implicit" claim on the target, recorded under a path-dependent
	// name the namer deliberately never hands out.
	m := n.Manager()
	return m.AcquireID(context.Background(), txn, m.Intern(lock.Resource(refPath.String()+"/@target")), mode)
}

var (
	_ Locker = Core{}
	_ Locker = (*WholeObject)(nil)
	_ Locker = (*TupleLevel)(nil)
	_ Locker = (*TraditionalDAG)(nil)
)
