package lock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAcquireTimeoutExpires(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.AcquireCtx(context.Background(), 2, "a", S, WithTimeout(30*time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("returned before the deadline")
	}
	if m.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d", m.Stats().Timeouts)
	}
	// The withdrawn waiter does not block later grants or leak.
	m.ReleaseAll(1)
	if err := m.AcquireCtx(context.Background(), 3, "a", X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
	if m.LockCount() != 0 {
		t.Error("locks leaked")
	}
}

func TestAcquireTimeoutGrantsInTime(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(context.Background(), 2, "a", S, WithTimeout(time.Second)) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatalf("grant within deadline failed: %v", err)
	}
	if heldMode(m, 2, "a") != S {
		t.Error("lock not held after timed grant")
	}
}

func TestAcquireTimeoutImmediateGrant(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X, WithTimeout(time.Millisecond)); err != nil {
		t.Fatalf("uncontended timed acquire failed: %v", err)
	}
}

// TestAcquireTimeoutRace hammers timed acquires against a releasing holder;
// every outcome must be either a held lock or a clean timeout, never a
// stuck waiter or a lost grant.
func TestAcquireTimeoutRace(t *testing.T) {
	m := NewManager(Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				err := m.AcquireCtx(context.Background(), id, "hot", X, WithTimeout(time.Duration(k%3)*time.Millisecond))
				if err == nil {
					m.ReleaseAll(id)
				} else if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrDeadlock) {
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
