package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Tests for the held index: one pooled lock list per transaction, written
// under the table-shard latch wherever a holder slot changes, answering
// HeldCoversID / HeldLocks / TxnActive / ActiveTxns and swept by ReleaseAll.

// checkHeldIndex compares the held index with the lock table, one resource
// at a time under that resource's table-shard latch — the latch every list
// write happens under, so the check may run against a live manager. Both
// directions: a holder slot is in its transaction's list, in the generation
// the slot names, with the slot's mode and durability; a listed lock has its
// slot. The one legal
// disagreement is a slot recorded in a list ReleaseAll has detached and is
// still sweeping; quiescent callers rule that out too.
func checkHeldIndex(m *Manager, quiescent bool) error {
	listedAs := func(txn TxnID, r ResID) (listedLock, uint64, bool) {
		ts := m.txnShardFor(txn)
		ts.mu.Lock()
		defer ts.mu.Unlock()
		l := ts.held[txn]
		if l == nil {
			return listedLock{}, 0, false
		}
		it, ok := l.m.Get(r)
		return it, l.gen, ok
	}
	for _, s := range m.shards {
		s.mu.Lock()
		for i, e := range s.res {
			if e == nil {
				continue
			}
			r := s.id(i)
			for _, sl := range e.slots {
				txn, h := sl.txn, sl.h
				it, gen, ok := listedAs(txn, r)
				var err error
				switch {
				case ok && gen == h.list && (it.mode != h.mode || it.durable != h.durable):
					err = fmt.Errorf("txn %d on %q: list says %v durable=%v, slot says %v durable=%v", txn, m.Name(r), it.mode, it.durable, h.mode, h.durable)
				case ok && gen != h.list:
					err = fmt.Errorf("txn %d on %q: listed in generation %d, slot stamped %d", txn, m.Name(r), gen, h.list)
				case !ok && (quiescent || gen == h.list):
					err = fmt.Errorf("txn %d holds %v on %q, not in its list", txn, h.mode, m.Name(r))
				}
				if err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	type pair struct {
		txn TxnID
		r   ResID
	}
	var pairs []pair
	for _, ts := range m.txns {
		ts.mu.Lock()
		for txn, l := range ts.held {
			if l.m.Len() == 0 {
				ts.mu.Unlock()
				return fmt.Errorf("txn %d: empty list left in the index", txn)
			}
			for _, slot := range l.m.slots {
				if slot.key != 0 {
					pairs = append(pairs, pair{txn, slot.key - 1})
				}
			}
		}
		ts.mu.Unlock()
	}
	for _, p := range pairs {
		s := m.shardFor(p.r)
		s.mu.Lock()
		_, _, ok := listedAs(p.txn, p.r)
		held := false
		if e := s.get(p.r); e != nil {
			held = e.holder(p.txn) != nil
		}
		s.mu.Unlock()
		if ok && !held {
			return fmt.Errorf("txn %d lists %q, the table has no such holder", p.txn, m.Name(p.r))
		}
	}
	return nil
}

// assertListsMatchTable is the black-box half, for a quiescent manager: what
// HeldLocks reports for each transaction equals what the queue snapshot and
// HeldModeID report per resource, durable flags equal Snapshot's, and
// ActiveTxns counts exactly the transactions holding something.
func assertListsMatchTable(t *testing.T, m *Manager, txns []TxnID, resources []Resource) {
	t.Helper()
	if err := checkHeldIndex(m, true); err != nil {
		t.Fatal(err)
	}
	type key struct {
		txn TxnID
		r   Resource
	}
	durable := map[key]bool{}
	for _, dl := range m.Snapshot() {
		durable[key{dl.Txn, dl.Resource}] = true
	}
	active, total := 0, 0
	for _, txn := range txns {
		list := map[Resource]Held{}
		for _, h := range m.HeldLocks(txn) {
			list[h.Resource] = h
		}
		if len(list) > 0 {
			active++
		}
		total += len(list)
		if got := m.TxnActive(txn); got != (len(list) > 0) {
			t.Errorf("txn %d: TxnActive = %v with %d listed locks", txn, got, len(list))
		}
		for _, r := range resources {
			want := holders(m, r)[txn]
			if got := heldMode(m, txn, r); got != want {
				t.Errorf("txn %d on %q: HeldModeID %v, holders %v", txn, r, got, want)
			}
			h, ok := list[r]
			if ok != (want != None) || h.Mode != want {
				t.Errorf("txn %d on %q: list has %v (listed=%v), table has %v", txn, r, h.Mode, ok, want)
			}
			if ok && h.Durable != durable[key{txn, r}] {
				t.Errorf("txn %d on %q: list durable=%v, snapshot durable=%v", txn, r, h.Durable, durable[key{txn, r}])
			}
			for _, mode := range []Mode{IS, IX, S, SIX, X} {
				if got := heldCovers(m, txn, r, mode, false); got != (want != None && want.Covers(mode)) {
					t.Errorf("txn %d on %q holding %v: HeldCoversID(%v) = %v", txn, r, want, mode, got)
				}
			}
		}
	}
	if got := m.ActiveTxns(); got != active {
		t.Errorf("ActiveTxns = %d, want %d", got, active)
	}
	if got := m.LockCount(); got != total {
		t.Errorf("LockCount = %d, lists hold %d", got, total)
	}
}

// TestHeldListMatchesTable: eight goroutines, one transaction each, run
// random histories of grants, conversions, durable upgrades, downgrades,
// single releases, release-alls, restores and blocking requests that other
// goroutines' releases grant. A checker validates the index against the
// table while they run; after every round the lists must equal the table.
func TestHeldListMatchesTable(t *testing.T) {
	m := NewManager(Options{DeadlockDefer: -1})
	defer m.Close()
	resources := []Resource{"root", "root/a", "root/b", "root/a/1", "root/b/1", "side"}
	modes := []Mode{IS, IX, S, SIX, X}
	const workers = 8
	txns := make([]TxnID, workers)
	for i := range txns {
		txns[i] = TxnID(i + 1)
	}
	rounds, steps := 6, 120
	if testing.Short() {
		rounds = 2
	}

	for round := 0; round < rounds; round++ {
		stop := make(chan struct{})
		var checker sync.WaitGroup
		checker.Add(1)
		go func() {
			defer checker.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := checkHeldIndex(m, false); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
		var wg sync.WaitGroup
		for _, id := range txns {
			wg.Add(1)
			go func(id TxnID, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				ctx := context.Background()
				for k := 0; k < steps; k++ {
					r := resources[rng.Intn(len(resources))]
					mode := modes[rng.Intn(len(modes))]
					opts := []AcquireOption{WithTimeout(time.Duration(1+rng.Intn(2)) * time.Millisecond)}
					if rng.Intn(4) == 0 {
						opts = append(opts, WithDurable())
					}
					switch op := rng.Intn(16); {
					case op < 7: // grant, convert or wait to be woken
						if err := m.AcquireCtx(ctx, id, r, mode, opts...); err != nil {
							m.ReleaseAll(id) // timeout or deadlock victim: abort
						}
					case op < 9: // a chain in one batch
						reqs := []BatchReq{{"root", IX}, {"root/a", IX}, {"root/a/1", mode}}
						if err := m.AcquireBatch(ctx, id, reqs, opts...); err != nil {
							m.ReleaseAll(id)
						}
					case op < 10: // durable upgrade of whatever is held
						if held := heldMode(m, id, r); held != None {
							if err := m.AcquireCtx(ctx, id, r, held, WithDurable()); err != nil {
								t.Errorf("txn %d: durable regrant: %v", id, err)
							}
						}
					case op < 12:
						if held := heldMode(m, id, r); held != None {
							down := []Mode{None, IS, IX, S}[rng.Intn(4)]
							if held.Covers(down) {
								if err := downgrade(m, id, r, down); err != nil {
									t.Errorf("txn %d: downgrade: %v", id, err)
								}
							}
						}
					case op < 13:
						release(m, id, r)
					case op < 14: // refused when it conflicts, which is fine
						_ = m.Restore([]DurableLock{{Txn: id, Resource: r, Mode: mode}})
					case op < 15:
						m.ReleaseAll(id)
					default: // a no-wait miss leaves nothing behind
						err := m.AcquireCtx(ctx, id, r, mode, WithNoWait())
						if err != nil && !errors.Is(err, ErrWouldBlock) {
							t.Errorf("txn %d: no-wait acquire: %v", id, err)
						}
					}
				}
			}(id, int64(round)*1009+int64(id)*7919)
		}
		wg.Wait()
		close(stop)
		checker.Wait()
		assertListsMatchTable(t, m, txns, resources)
		assertSummaries(t, m)
		if round%2 == 1 { // every other round starts from what the last one left
			for _, id := range txns {
				m.ReleaseAll(id)
			}
			assertListsMatchTable(t, m, txns, resources)
		}
	}
	for _, id := range txns {
		m.ReleaseAll(id)
	}
	if n, a := m.LockCount(), m.ActiveTxns(); n != 0 || a != 0 {
		t.Fatalf("after the last release: %d locks, %d active transactions", n, a)
	}
}

// TestFailedFirstLockLeavesNoList: a transaction whose first request is
// refused, times out or is cancelled, and which then ends, leaves nothing in
// the held index — lists exist only for transactions holding something.
// (The per-transaction grant-cache registry this index replaced leaked one
// entry per such transaction.)
func TestFailedFirstLockLeavesNoList(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	ctx := context.Background()
	if err := m.AcquireCtx(ctx, 1, "hot", X); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for i := 0; i < 1000; i++ {
		txn := TxnID(2 + i)
		var err error
		switch i % 50 {
		case 0:
			err = m.AcquireCtx(ctx, txn, "hot", S, WithTimeout(time.Millisecond))
		case 1:
			err = m.AcquireCtx(cancelled, txn, "hot", S)
		default:
			err = m.AcquireCtx(ctx, txn, "hot", S, WithNoWait())
		}
		if err == nil {
			t.Fatalf("txn %d got S under txn 1's X", txn)
		}
		if heldCovers(m, txn, "hot", IS, false) {
			t.Fatalf("txn %d: HeldCovers hit after a failed request", txn)
		}
		m.ReleaseAll(txn)
	}
	if got := m.ActiveTxns(); got != 1 {
		t.Errorf("ActiveTxns = %d after 1000 failed-first-lock transactions, want 1", got)
	}
	if err := checkHeldIndex(m, true); err != nil {
		t.Error(err)
	}
	m.ReleaseAll(1)
	for i, ts := range m.txns {
		if n := len(ts.held); n != 0 {
			t.Errorf("txn shard %d still indexes %d lists", i, n)
		}
	}
}

// TestHeldCovers: the answer follows the holder slot through every change,
// costs no request and emits no event.
func TestHeldCovers(t *testing.T) {
	events := 0
	m := NewManager(Options{Sinks: []EventSink{sinkFunc(func(Event) { events++ })}})
	defer m.Close()
	ctx := context.Background()
	const r = Resource("db/seg/rel/o1")
	covers := func(mode Mode, durable bool) bool { return heldCovers(m, 1, r, mode, durable) }

	if covers(IS, false) {
		t.Error("hit before any grant")
	}
	if err := m.AcquireCtx(ctx, 1, r, IX); err != nil {
		t.Fatal(err)
	}
	if !covers(IS, false) || !covers(IX, false) || covers(S, false) || covers(X, false) {
		t.Error("IX held: want IS and IX covered, S and X not")
	}
	if heldCovers(m, 2, r, IS, false) {
		t.Error("another transaction hits on txn 1's lock")
	}
	if covers(IS, true) {
		t.Error("durable request answered by a non-durable lock")
	}
	if err := m.AcquireCtx(ctx, 1, r, IS, WithDurable()); err != nil { // regrant, durable flip
		t.Fatal(err)
	}
	if !covers(IX, true) {
		t.Error("durable flip on a regrant not recorded")
	}
	if err := m.AcquireCtx(ctx, 1, r, S); err != nil { // convert IX → SIX
		t.Fatal(err)
	}
	if !covers(S, true) || covers(X, false) {
		t.Error("conversion to SIX not recorded")
	}
	if err := downgrade(m, 1, r, IS); err != nil {
		t.Fatal(err)
	}
	if !covers(IS, false) || covers(IX, false) {
		t.Error("downgrade to IS not recorded")
	}

	before, seen := m.Stats(), events
	for i := 0; i < 10; i++ {
		covers(IS, false)
	}
	if after := m.Stats(); after.Requests != before.Requests || after.Regrants != before.Regrants {
		t.Errorf("HeldCovers counted requests: %d → %d", before.Requests, after.Requests)
	}
	if events != seen {
		t.Errorf("HeldCovers emitted %d events", events-seen)
	}

	release(m, 1, r)
	if covers(IS, false) || m.TxnActive(1) {
		t.Error("hit after Release of the last lock")
	}
	if err := m.Restore([]DurableLock{{Txn: 1, Resource: r, Mode: S}}); err != nil {
		t.Fatal(err)
	}
	if !covers(S, true) {
		t.Error("restored durable lock not recorded")
	}
	m.ReleaseAll(1)
	if covers(IS, false) || m.TxnActive(1) || m.ActiveTxns() != 0 {
		t.Error("hit after ReleaseAll")
	}
}

// TestReleaseAllSweepSeesRerecordedSlot plays, step by step, the one race
// the list generation exists for: ReleaseAll has taken the transaction's list
// out of the index, and before its sweep reaches a resource another
// goroutine changes that slot, recording it in a fresh list. The sweep must
// then delete from the fresh list what it releases from the table.
func TestReleaseAllSweepSeesRerecordedSlot(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	ctx := context.Background()
	for _, r := range []Resource{"a", "b"} {
		if err := m.AcquireCtx(ctx, 1, r, IS); err != nil {
			t.Fatal(err)
		}
	}
	l := m.txnShardFor(1).detach(1) // ReleaseAll, first step
	if heldCovers(m, 1, "a", IS, false) {
		t.Error("hit on a detached list")
	}
	if err := m.AcquireCtx(ctx, 1, "a", IX); err != nil { // foreign conversion mid-sweep
		t.Fatal(err)
	}
	if !heldCovers(m, 1, "a", IX, false) {
		t.Error("conversion during the sweep not recorded")
	}
	if err := checkHeldIndex(m, false); err != nil {
		t.Error(err)
	}
	for _, slot := range l.m.slots { // ReleaseAll, the sweep
		if r := slot.key - 1; slot.key != 0 {
			s := m.shardFor(r)
			s.mu.Lock()
			m.releaseLocked(nil, s, s.get(r), 1, r, l.gen)
			s.mu.Unlock()
		}
	}
	putHeldList(l)
	if heldCovers(m, 1, "a", IS, false) || m.TxnActive(1) || m.LockCount() != 0 {
		t.Errorf("after the sweep: covers=%v active=%v locks=%d, want nothing left",
			heldCovers(m, 1, "a", IS, false), m.TxnActive(1), m.LockCount())
	}
	if err := checkHeldIndex(m, true); err != nil {
		t.Error(err)
	}
}
