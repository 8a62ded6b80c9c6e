package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"colock/internal/lock"
	"colock/internal/store"
)

// TestFastPathSkipsManager: after a covering grant, IS/IX re-acquisition of
// the same chain performs ZERO lock-manager requests — the headline of the
// fast path.
func TestFastPathSkipsManager(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.Lock(1, DataNode(store.P("cells", "c1")), lock.IS); err != nil {
		t.Fatal(err)
	}
	before := p.Manager().Stats()
	if err := p.Lock(1, DataNode(store.P("cells", "c1")), lock.IS); err != nil {
		t.Fatal(err)
	}
	after := p.Manager().Stats()
	if d := after.Requests - before.Requests; d != 0 {
		t.Errorf("IS re-acquisition made %d manager requests, want 0", d)
	}
	if p.Stats().FastPathHits == 0 {
		t.Error("FastPathHits not counted")
	}
}

// TestFastPathRepeatedLeaf: on the repeated-leaf workload shape (the
// hotbench scenario) only the S node locks reach the manager; the shared
// ancestor spine is answered by the lock list.
func TestFastPathRepeatedLeaf(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.S); err != nil {
		t.Fatal(err)
	}
	before := p.Manager().Stats()
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.S); err != nil {
		t.Fatal(err)
	}
	after := p.Manager().Stats()
	// S on r1 re-scans and re-locks the node plus its two referenced
	// effectors (e1, e2): exactly 3 manager requests, all regrants — the
	// 5-deep ancestor spine and the effectors' own spines are fast-path hits.
	if d := after.Requests - before.Requests; d != 3 {
		t.Errorf("repeated leaf S made %d manager requests, want 3", d)
	}
	if d := after.Regrants - before.Regrants; d != 3 {
		t.Errorf("repeated leaf S made %d regrants, want 3", d)
	}
	assertProtocolInvariants(t, p, 1)
}

// TestColdChainIsBatched: a cold chain acquisition goes through
// Manager.AcquireBatch (one latch round), not per-resource calls.
func TestColdChainIsBatched(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.Lock(1, DataNode(store.P("cells", "c1")), lock.IX); err != nil {
		t.Fatal(err)
	}
	ms := p.Manager().Stats()
	if ms.Batches != 1 {
		t.Errorf("Batches = %d, want 1", ms.Batches)
	}
	// db, seg1, cells, c1 — all four served by the one batch.
	if ms.BatchFastGrants != 4 {
		t.Errorf("BatchFastGrants = %d, want 4", ms.BatchFastGrants)
	}
	if got := p.Stats().BatchedLocks; got != 4 {
		t.Errorf("BatchedLocks = %d, want 4", got)
	}
	assertProtocolInvariants(t, p, 1)
}

// TestCacheInvalidatedOnReleaseAll: end of transaction drops the lock list,
// so the next transaction-life re-acquires through the manager.
func TestCacheInvalidatedOnReleaseAll(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.Lock(1, DataNode(store.P("cells", "c1")), lock.IS); err != nil {
		t.Fatal(err)
	}
	p.Release(1)
	if n := p.Manager().LockCount(); n != 0 {
		t.Fatalf("LockCount = %d after release, want 0", n)
	}
	before := p.Manager().Stats()
	if err := p.Lock(1, DataNode(store.P("cells", "c1")), lock.IS); err != nil {
		t.Fatal(err)
	}
	after := p.Manager().Stats()
	if d := after.Requests - before.Requests; d != 4 {
		t.Errorf("post-ReleaseAll IS made %d manager requests, want 4 (stale cache?)", d)
	}
	if d := after.Grants - before.Grants; d != 4 {
		t.Errorf("post-ReleaseAll IS made %d grants, want 4", d)
	}
	assertProtocolInvariants(t, p, 1)
}

// TestCacheInvalidatedOnEarlyRelease: rule 5's leaf-to-root early release
// (Unlock) must take the node out of the lock list — otherwise a later lock
// of a descendant would skip the IS re-acquisition on the released ancestor
// and leave the descendant without intention cover.
func TestCacheInvalidatedOnEarlyRelease(t *testing.T) {
	p, _ := newProto(t, Options{})
	r1 := store.P("cells", "c1", "robots", "r1")
	if err := p.LockPath(1, r1, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlock(1, DataNode(r1)); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(p.Manager(), 1, "db1/seg1/cells/c1/robots/r1"); got != lock.None {
		t.Fatalf("r1 still held %v after Unlock", got)
	}
	// Locking below r1 must re-acquire the intention on r1 through the
	// manager — a stale listed X would have skipped it.
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1", "trajectory"), lock.S); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(p.Manager(), 1, "db1/seg1/cells/c1/robots/r1"); got != lock.IS {
		t.Errorf("r1 held %v after re-lock below it, want IS", got)
	}
	assertProtocolInvariants(t, p, 1)
}

// TestCacheInvalidatedOnDeEscalate pins the fast path's contract after a
// de-escalation, which is precise rather than a flush: the downgraded node
// answers with its new mode (the lock list changes under the same latch as
// the holder slot, so a stale X cannot exist), the untouched ancestors still
// hit, and a request the new mode does not cover reaches the manager.
func TestCacheInvalidatedOnDeEscalate(t *testing.T) {
	p, _ := newProto(t, Options{})
	mgr := p.Manager()
	c1 := store.P("cells", "c1")
	const c1res = lock.Resource("db1/seg1/cells/c1")
	if err := p.LockPath(1, c1, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := p.DeEscalate(1, DataNode(c1), []store.Path{store.P("cells", "c1", "robots", "r1")}); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(mgr, 1, c1res); got != lock.IX {
		t.Fatalf("c1 held %v after de-escalation, want IX", got)
	}
	if !mgr.HeldCoversID(1, mgr.Intern(c1res), lock.IX, false) {
		t.Error("c1 does not answer IX after de-escalation to IX")
	}
	for _, stale := range []lock.Mode{lock.S, lock.X} {
		if mgr.HeldCoversID(1, mgr.Intern(c1res), stale, false) {
			t.Errorf("c1 still answers %v after de-escalation to IX", stale)
		}
	}
	// Locking a sibling of the kept robot: the spine above it — db1, seg1,
	// cells and c1 itself, now IX — is answered by the lock list; only the
	// two new resources (c_objects IX, o1 X) reach the manager.
	fp, ms := p.Stats().FastPathHits, mgr.Stats()
	if err := p.LockPath(1, store.P("cells", "c1", "c_objects", "o1"), lock.X); err != nil {
		t.Fatal(err)
	}
	if d := p.Stats().FastPathHits - fp; d != 4 {
		t.Errorf("post-deescalation Lock had %d fast-path hits, want 4 (db1, seg1, cells, c1)", d)
	}
	if d := mgr.Stats().Grants - ms.Grants; d != 2 {
		t.Errorf("post-deescalation Lock made %d grants, want 2 (c_objects, o1)", d)
	}
	if got := heldMode(mgr, 1, c1res); got != lock.IX {
		t.Errorf("c1 held %v after locking o1, want IX", got)
	}
	// A second transaction can now reach the released siblings.
	if err := p.Lock(2, DataNode(store.P("cells", "c1", "robots")), lock.IS); err != nil {
		t.Fatal(err)
	}
	assertProtocolInvariants(t, p, 1)
	assertProtocolInvariants(t, p, 2)
	p.Release(2)
	// Asking for X on c1 again is not covered by the IX the list now shows:
	// the request reaches the manager and converts the lock.
	ms = mgr.Stats()
	if err := p.LockPath(1, c1, lock.X); err != nil {
		t.Fatal(err)
	}
	if d := mgr.Stats().Conversions - ms.Conversions; d != 1 {
		t.Errorf("re-escalating c1 made %d conversions, want 1", d)
	}
	if got := heldMode(mgr, 1, c1res); got != lock.X {
		t.Errorf("c1 held %v after re-escalation, want X", got)
	}
	assertProtocolInvariants(t, p, 1)
}

// TestFailedFirstLockLeavesNothingBehind: a transaction whose first lock call
// fails (cancelled, timed out behind a conflicting holder) and which then
// ends must leave no per-transaction state anywhere. The grant-cache registry
// the lock list replaced created its entry before the first acquire and only
// dropped it when ReleaseAll had released something: one leaked entry per
// such transaction.
func TestFailedFirstLockLeavesNothingBehind(t *testing.T) {
	p, _ := newProto(t, Options{})
	c1 := DataNode(store.P("cells", "c1"))
	if err := p.Lock(1, c1, lock.X); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		txn := lock.TxnID(2 + i)
		var err error
		if i%100 == 0 {
			// Granted up to cells, times out on c1: the failed call leaves
			// real locks behind for Release to drop.
			err = p.LockWith(context.Background(), txn, c1, lock.S, false, false, time.Millisecond)
		} else {
			err = p.LockWith(cancelled, txn, c1, lock.S, false, false, 0)
		}
		if err == nil {
			t.Fatalf("txn %d got S under txn 1's X", txn)
		}
		p.Release(txn)
	}
	if got := p.Manager().ActiveTxns(); got != 1 {
		t.Errorf("ActiveTxns = %d after 1000 failed-first-lock transactions, want 1", got)
	}
	if got, want := p.Manager().LockCount(), len(p.Manager().HeldLocks(1)); got != want {
		t.Errorf("LockCount = %d, txn 1 holds %d", got, want)
	}
	p.Release(1)
	if got := p.Manager().ActiveTxns(); got != 0 {
		t.Errorf("ActiveTxns = %d after the last release, want 0", got)
	}
}

// TestDurableRequestNotSwallowedByCache: a durable ("long") request must
// reach the manager even when a non-durable cached grant covers the mode,
// so the held locks get their durable flag.
func TestDurableRequestNotSwallowedByCache(t *testing.T) {
	p, _ := newProto(t, Options{})
	r1 := store.P("cells", "c1", "robots", "r1")
	if err := p.LockPath(1, r1, lock.S); err != nil {
		t.Fatal(err)
	}
	for _, h := range p.Manager().HeldLocks(1) {
		if h.Durable {
			t.Fatalf("%s durable before the durable lock", h.Resource)
		}
	}
	if err := p.LockWith(context.Background(), 1, DataNode(r1), lock.S, true, false, 0); err != nil {
		t.Fatal(err)
	}
	for _, h := range p.Manager().HeldLocks(1) {
		if !h.Durable {
			t.Errorf("%s not durable after the durable lock (cache swallowed the durable upgrade?)", h.Resource)
		}
	}
}

// TestDisableFastPath: with the fast path off nothing is answered from the
// lock list — every request of every chain reaches the manager, so request
// counts are the paper's.
func TestDisableFastPath(t *testing.T) {
	p, _ := newProto(t, Options{DisableFastPath: true})
	for i := 0; i < 2; i++ {
		if err := p.Lock(1, DataNode(store.P("cells", "c1")), lock.IS); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.FastPathHits != 0 {
		t.Errorf("fast path active despite DisableFastPath: %+v", st)
	}
	if ms := p.Manager().Stats(); ms.Requests != 8 {
		t.Errorf("Requests = %d, want 8 (4 per call)", ms.Requests)
	}
}

// TestFastPathStress exercises fast-path hits, ReleaseAll, Downgrade
// (DeEscalate) and early release (Unlock) from concurrent transactions
// under -race: each worker X-locks its own disjoint cell, de-escalates,
// early-releases, and S-reads the shared paper cell (whose robots reference
// the common effectors), re-checking the hierarchy invariant throughout.
func TestFastPathStress(t *testing.T) {
	st := store.PaperDatabase()
	const workers = 8
	for w := 0; w < workers; w++ {
		key := fmt.Sprintf("cw%d", w)
		robot := store.NewTuple().
			Set("robot_id", store.Str("r1")).
			Set("trajectory", store.Str("t")).
			Set("effectors", store.NewSet())
		cell := store.NewTuple().
			Set("cell_id", store.Str(key)).
			Set("c_objects", store.NewSet()).
			Set("robots", store.NewList().Append("r1", robot))
		if err := st.Insert("cells", key, cell); err != nil {
			t.Fatal(err)
		}
	}
	nm := NewNamer(st.Catalog(), false)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})

	iters := 150
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			txn := lock.TxnID(id + 1)
			own := store.P("cells", fmt.Sprintf("cw%d", id))
			ownR1 := own.Child("robots").Child("r1")
			for i := 0; i < iters; i++ {
				// Disjoint X + de-escalation (Downgrade under the hood).
				if err := p.LockPath(txn, own, lock.X); err != nil {
					t.Errorf("txn %d: %v", txn, err)
					return
				}
				if err := p.DeEscalate(txn, DataNode(own), []store.Path{ownR1}); err != nil {
					t.Errorf("txn %d deescalate: %v", txn, err)
					return
				}
				// Early release of the kept fine lock (Release under the hood).
				if err := p.Unlock(txn, DataNode(ownR1)); err != nil {
					t.Errorf("txn %d unlock: %v", txn, err)
					return
				}
				// Shared S traffic over the common effectors, repeated so the
				// lock list answers the spine.
				for k := 0; k < 3; k++ {
					if err := p.LockPath(txn, store.P("cells", "c1", "robots", "r1"), lock.S); err != nil {
						t.Errorf("txn %d: %v", txn, err)
						return
					}
					if err := p.Lock(txn, DataNode(store.P("cells", "c1")), lock.IS); err != nil {
						t.Errorf("txn %d: %v", txn, err)
						return
					}
				}
				assertProtocolInvariants(t, p, txn)
				p.Release(txn)
			}
		}(w)
	}
	wg.Wait()
	if n := p.Manager().LockCount(); n != 0 {
		t.Errorf("LockCount = %d after all releases, want 0", n)
	}
	if p.Stats().FastPathHits == 0 {
		t.Error("stress produced no fast-path hits")
	}
}

// BenchmarkHotLockPath is the hotbench inner loop as a Go benchmark, for
// profiling the fast path; run with -benchmem.
func BenchmarkHotLockPath(b *testing.B) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	p := NewProtocol(mgr, st, nm, Options{})
	path := store.P("effectors", "e2", "tool")
	if err := p.LockPath(1, path, lock.S); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.LockPath(1, path, lock.S); err != nil {
			b.Fatal(err)
		}
	}
}
