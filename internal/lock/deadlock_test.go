package lock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestTwoTxnDeadlock: classic AB-BA deadlock; the younger txn (2) must be
// the victim.
func TestTwoTxnDeadlock(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "b", X); err != nil {
		t.Fatal(err)
	}

	r1 := make(chan error, 1)
	go func() { r1 <- m.AcquireCtx(context.Background(), 1, "b", X) }()
	time.Sleep(20 * time.Millisecond) // ensure txn 1 is queued first

	err2 := m.AcquireCtx(context.Background(), 2, "a", X) // closes the cycle
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("txn 2: want ErrDeadlock, got %v", err2)
	}
	m.ReleaseAll(2)
	if err := <-r1; err != nil {
		t.Fatalf("txn 1 (survivor): %v", err)
	}
	if m.Stats().Deadlocks != 1 {
		t.Errorf("Deadlocks = %d, want 1", m.Stats().Deadlocks)
	}
}

// TestVictimIsYoungest: when the cycle is closed by the OLDER transaction,
// the younger waiter must still be the victim: its blocked Acquire returns
// ErrDeadlock.
func TestVictimIsYoungest(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "b", X); err != nil {
		t.Fatal(err)
	}

	r2 := make(chan error, 1)
	go func() { r2 <- m.AcquireCtx(context.Background(), 2, "a", X) }() // younger waits first
	time.Sleep(20 * time.Millisecond)

	// Older txn closes the cycle; victim must be txn 2.
	r1 := make(chan error, 1)
	go func() { r1 <- m.AcquireCtx(context.Background(), 1, "b", X) }()

	err2 := <-r2
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("txn 2: want ErrDeadlock, got %v", err2)
	}
	m.ReleaseAll(2) // victim aborts, freeing b
	if err := <-r1; err != nil {
		t.Fatalf("txn 1 (survivor): %v", err)
	}
}

// TestThreeTxnCycle: a → b → c → a.
func TestThreeTxnCycle(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", X)
	_ = m.AcquireCtx(context.Background(), 2, "b", X)
	_ = m.AcquireCtx(context.Background(), 3, "c", X)

	r1 := make(chan error, 1)
	r2 := make(chan error, 1)
	go func() { r1 <- m.AcquireCtx(context.Background(), 1, "b", X) }()
	time.Sleep(20 * time.Millisecond)
	go func() { r2 <- m.AcquireCtx(context.Background(), 2, "c", X) }()
	time.Sleep(20 * time.Millisecond)

	err3 := m.AcquireCtx(context.Background(), 3, "a", X) // closes cycle; txn 3 youngest => victim
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
}

// TestUpgradeDeadlock: two S holders both upgrading to X deadlock; the
// younger is aborted.
func TestUpgradeDeadlock(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", S)
	_ = m.AcquireCtx(context.Background(), 2, "a", S)

	r1 := make(chan error, 1)
	go func() { r1 <- m.AcquireCtx(context.Background(), 1, "a", X) }()
	time.Sleep(20 * time.Millisecond)

	err2 := m.AcquireCtx(context.Background(), 2, "a", X)
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("txn 2: want ErrDeadlock, got %v", err2)
	}
	m.ReleaseAll(2)
	if err := <-r1; err != nil {
		t.Fatalf("txn 1 upgrade: %v", err)
	}
	if heldMode(m, 1, "a") != X {
		t.Errorf("mode = %v, want X", heldMode(m, 1, "a"))
	}
}

// TestNoFalseDeadlock: a plain waits-for chain without a cycle must not
// trigger victim selection.
func TestNoFalseDeadlock(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", X)
	r2 := make(chan error, 1)
	go func() { r2 <- m.AcquireCtx(context.Background(), 2, "a", X) }()
	time.Sleep(20 * time.Millisecond)
	r3 := make(chan error, 1)
	go func() { r3 <- m.AcquireCtx(context.Background(), 3, "a", X) }()
	time.Sleep(20 * time.Millisecond)

	if m.Stats().Deadlocks != 0 {
		t.Fatalf("false deadlock detected")
	}
	m.ReleaseAll(1)
	if err := <-r2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-r3; err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockStress: many goroutines locking two resources in opposite
// orders; every Acquire must terminate (grant or victim), no livelock.
func TestDeadlockStress(t *testing.T) {
	m := NewManager(Options{})
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			first, second := Resource("a"), Resource("b")
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
		t.Fatal("deadlock stress did not terminate (livelock or undetected deadlock)")
	}
	if m.LockCount() != 0 {
		t.Errorf("locks leaked: %d", m.LockCount())
	}
}
