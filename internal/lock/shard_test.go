package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestShardCount(t *testing.T) {
	if n := len(NewManager(Options{}).shards); n < 16 || n&(n-1) != 0 {
		t.Errorf("default shard count %d: want a power of two >= 16", n)
	}
	if n := len(newManager(Options{}, 1).shards); n != 1 {
		t.Errorf("1 stripe gave %d shards", n)
	}
	if n := len(newManager(Options{}, 5).shards); n != 8 {
		t.Errorf("5 stripes gave %d shards, want 8 (next power of two)", n)
	}
}

// twoResourcesInDifferentShards returns resources guaranteed to live in
// distinct shards (their ids differ modulo the stripe count), so tests
// exercise genuinely cross-shard paths.
func twoResourcesInDifferentShards(t *testing.T, m *Manager) (Resource, Resource) {
	t.Helper()
	if len(m.shards) < 2 {
		t.Fatal("need at least 2 shards")
	}
	a := Resource("a")
	m.Intern(a)
	for i := 0; i < 10000; i++ {
		b := Resource(fmt.Sprintf("b%d", i))
		m.Intern(b)
		if m.ShardOf(b) != m.ShardOf(a) {
			return a, b
		}
	}
	t.Fatal("no resource pair in different shards found")
	return "", ""
}

// TestCrossShardDeadlock proves the detector finds cycles whose edges span
// different shards: the classic AB-BA deadlock with A and B hashed to
// distinct stripes.
func TestCrossShardDeadlock(t *testing.T) {
	m := NewManager(Options{})
	a, b := twoResourcesInDifferentShards(t, m)

	if err := m.AcquireCtx(context.Background(), 1, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, b, X); err != nil {
		t.Fatal(err)
	}
	r1 := make(chan error, 1)
	go func() { r1 <- m.AcquireCtx(context.Background(), 1, b, X) }()
	time.Sleep(20 * time.Millisecond)

	err2 := m.AcquireCtx(context.Background(), 2, a, X) // closes the cross-shard cycle
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("txn 2: want ErrDeadlock, got %v", err2)
	}
	var le *LockError
	if !errors.As(err2, &le) {
		t.Fatalf("deadlock error is not a *LockError: %v", err2)
	}
	if le.Txn != 2 || le.Resource != a {
		t.Errorf("LockError names txn %d on %q, want txn 2 on %q", le.Txn, le.Resource, a)
	}
	m.ReleaseAll(2)
	if err := <-r1; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	m.ReleaseAll(1)
	if m.LockCount() != 0 {
		t.Errorf("locks leaked: %d", m.LockCount())
	}
}

// TestCrossShardDeadlockRing drives three transactions into a cycle over
// three resources in (very likely) different shards.
func TestCrossShardDeadlockRing(t *testing.T) {
	m := NewManager(Options{})
	rs := []Resource{"ring/a", "ring/b", "ring/c"}
	for i, r := range rs {
		if err := m.AcquireCtx(context.Background(), TxnID(i+1), r, X); err != nil {
			t.Fatal(err)
		}
	}
	r1 := make(chan error, 1)
	r2 := make(chan error, 1)
	go func() { r1 <- m.AcquireCtx(context.Background(), 1, rs[1], X) }()
	time.Sleep(20 * time.Millisecond)
	go func() { r2 <- m.AcquireCtx(context.Background(), 2, rs[2], X) }()
	time.Sleep(20 * time.Millisecond)

	err3 := m.AcquireCtx(context.Background(), 3, rs[0], X) // youngest closes the ring
	if !errors.Is(err3, ErrDeadlock) {
		t.Fatalf("txn 3: want ErrDeadlock, got %v", err3)
	}
	m.ReleaseAll(3)
	if err := <-r2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-r1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if m.LockCount() != 0 {
		t.Errorf("locks leaked: %d", m.LockCount())
	}
}

func TestAcquireCtxCancelWithdraws(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(ctx, 2, "a", S) }()
	for m.WaitingTxns() == 0 { // cancel a queued request, not one yet to start
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var le *LockError
	if !errors.As(err, &le) || le.Txn != 2 || le.Resource != "a" || le.Mode != S {
		t.Errorf("LockError = %+v", le)
	}
	if m.Stats().Cancels != 1 {
		t.Errorf("Cancels = %d, want 1", m.Stats().Cancels)
	}
	// The withdrawn waiter left no queue entry behind: txn 3's X is granted
	// as soon as txn 1 releases, and the table drains to empty.
	m.ReleaseAll(1)
	if err := m.AcquireCtx(context.Background(), 3, "a", X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
	if m.LockCount() != 0 {
		t.Errorf("locks leaked: %d", m.LockCount())
	}
}

func TestAcquireCtxAlreadyCanceled(t *testing.T) {
	m := NewManager(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.AcquireCtx(ctx, 1, "a", X)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if heldMode(m, 1, "a") != None {
		t.Error("canceled context still acquired a lock")
	}
	if m.LockCount() != 0 {
		t.Error("table not empty")
	}
}

func TestAcquireCtxDeadline(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := m.AcquireCtx(ctx, 2, "a", S)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	m.ReleaseAll(1)
	if m.LockCount() != 0 {
		t.Error("locks leaked")
	}
}

// TestAcquireCtxCancelRace hammers cancellation against concurrent grants:
// every outcome must be either a held lock or a clean cancel error, with no
// stuck waiters or leaked entries.
func TestAcquireCtxCancelRace(t *testing.T) {
	m := NewManager(Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(k%3)*time.Millisecond)
				err := m.AcquireCtx(ctx, id, "hot", X)
				cancel()
				if err == nil {
					m.ReleaseAll(id)
				} else if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadlock) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(TxnID(i + 1))
	}
	wg.Wait()
	if m.LockCount() != 0 {
		t.Errorf("locks leaked: %d", m.LockCount())
	}
}

func TestAcquireCtxOptions(t *testing.T) {
	m := NewManager(Options{})
	// WithNoWait reports ErrWouldBlock as a structured error.
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	err := m.AcquireCtx(context.Background(), 2, "a", S, WithNoWait())
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want ErrWouldBlock, got %v", err)
	}
	var le *LockError
	if !errors.As(err, &le) || le.Resource != "a" || le.Txn != 2 {
		t.Errorf("LockError = %+v", le)
	}
	// WithTimeout reports ErrTimeout.
	err = m.AcquireCtx(context.Background(), 2, "a", S, WithTimeout(20*time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// WithDurable marks the lock for Snapshot.
	if err := m.AcquireCtx(context.Background(), 3, "b", X, WithDurable()); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Resource != "b" || snap[0].Txn != 3 {
		t.Errorf("snapshot = %v, want txn 3's durable lock on b", snap)
	}
}

// TestEventHookMayReenter verifies the delivery contract: events are
// delivered outside all shard latches, so a sink may call back into the
// manager (the old contract forbade this on pain of self-deadlock).
func TestEventHookMayReenter(t *testing.T) {
	var m *Manager
	var events []Event
	var counts []int
	m = NewManager(Options{Sinks: []EventSink{sinkFunc(func(e Event) {
		events = append(events, e)
		counts = append(counts, m.LockCount()) // re-enters the manager
	})}})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if len(events) != 3 || events[0].Kind != "grant" || events[1].Kind != "release" || events[2].Kind != "release-all" {
		t.Fatalf("events = %v", events)
	}
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 0 {
		t.Errorf("LockCount seen by hook = %v, want [1 0 0]", counts)
	}
}

// TestShardedStress hammers the manager from 24 goroutines over a mix of
// per-goroutine disjoint resources (spread across shards) and a small hot
// overlapping set, checking grant-group compatibility and full drain. Run
// with -race this exercises the latch-ordering discipline end to end.
func TestShardedStress(t *testing.T) {
	m := NewManager(Options{})
	hot := []Resource{"hot/0", "hot/1", "hot/2"}
	const workers = 24
	var wg sync.WaitGroup
	var violations sync.Map
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			disjoint := make([]Resource, 8)
			for k := range disjoint {
				disjoint[k] = Resource(fmt.Sprintf("g%d/r%d", id, k))
			}
			for k := 0; k < 40; k++ {
				// Disjoint working set: must never conflict.
				okAll := true
				for _, r := range disjoint {
					if err := m.AcquireCtx(context.Background(), id, r, X); err != nil {
						okAll = false
						break
					}
				}
				if !okAll {
					m.ReleaseAll(id)
					continue
				}
				// One hot overlapping resource with mixed modes.
				r := hot[int(id)%len(hot)]
				mode := S
				if k%3 == 0 {
					mode = X
				}
				if err := m.AcquireCtx(context.Background(), id, r, mode); err == nil {
					hs := holders(m, r)
					for t1, m1 := range hs {
						for t2, m2 := range hs {
							if t1 != t2 && !m1.Compatible(m2) {
								violations.Store(r, [2]Mode{m1, m2})
							}
						}
					}
				}
				m.ReleaseAll(id)
			}
		}(TxnID(i + 1))
	}
	wg.Wait()
	violations.Range(func(k, v any) bool {
		t.Errorf("incompatible grant on %v: %v", k, v)
		return true
	})
	if m.LockCount() != 0 {
		t.Errorf("locks leaked: %d", m.LockCount())
	}
	st := m.Stats()
	if st.Requests == 0 || st.Grants == 0 {
		t.Errorf("stats not aggregated: %+v", st)
	}
}

// TestCrossShardDeadlockStress runs opposing lock orders over resources in
// different shards; detection must resolve every cycle (no stuck goroutine).
func TestCrossShardDeadlockStress(t *testing.T) {
	m := NewManager(Options{})
	a, b := twoResourcesInDifferentShards(t, m)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			first, second := a, b
			if id%2 == 0 {
				first, second = second, first
			}
			for k := 0; k < 30; k++ {
				if err := m.AcquireCtx(context.Background(), id, first, X); err != nil {
					m.ReleaseAll(id)
					continue
				}
				if err := m.AcquireCtx(context.Background(), id, second, X); err != nil {
					m.ReleaseAll(id)
					continue
				}
				m.ReleaseAll(id)
			}
		}(TxnID(i + 1))
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cross-shard deadlock stress did not terminate")
	}
	if m.LockCount() != 0 {
		t.Errorf("locks leaked: %d", m.LockCount())
	}
}

// TestSingleShardDegenerate runs the core flows on a one-stripe manager (the
// benchmark baseline topology) to keep it correct too.
func TestSingleShardDegenerate(t *testing.T) {
	m := newManager(Options{}, 1)
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "b", X); err != nil {
		t.Fatal(err)
	}
	if got := m.LockCount(); got != 2 {
		t.Errorf("LockCount = %d, want 2", got)
	}
	held := m.HeldLocks(1)
	if len(held) != 1 || held[0].Resource != "a" {
		t.Errorf("HeldLocks = %v", held)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if m.LockCount() != 0 {
		t.Error("table not empty")
	}
}
