package lock

import (
	"context"
	"testing"
	"time"
)

func TestDowngradeInPlace(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := downgrade(m, 1, "a", IX); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(m, 1, "a"); got != IX {
		t.Errorf("mode = %v, want IX", got)
	}
	if m.Stats().Downgrades != 1 {
		t.Errorf("Downgrades = %d", m.Stats().Downgrades)
	}
}

func TestDowngradeWakesWaiters(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(context.Background(), 2, "a", IX) }()
	select {
	case err := <-done:
		t.Fatalf("IX granted under X: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := downgrade(m, 1, "a", IX); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Both hold IX now.
	h := holders(m, "a")
	if h[1] != IX || h[2] != IX {
		t.Errorf("holders = %v", h)
	}
}

func TestDowngradeErrors(t *testing.T) {
	m := NewManager(Options{})
	if err := downgrade(m, 1, "a", IS); err == nil {
		t.Error("downgrade of unheld lock succeeded")
	}
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := downgrade(m, 1, "a", X); err == nil {
		t.Error("upgrade via Downgrade succeeded")
	}
	if err := downgrade(m, 1, "a", IX); err == nil {
		t.Error("downgrade to incomparable mode succeeded (S does not cover IX)")
	}
	// Equal mode is a permitted no-op-ish downgrade.
	if err := downgrade(m, 1, "a", S); err != nil {
		t.Errorf("downgrade to same mode: %v", err)
	}
}

func TestDowngradeToNoneReleases(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := downgrade(m, 1, "a", None); err != nil {
		t.Fatal(err)
	}
	if heldMode(m, 1, "a") != None {
		t.Error("lock survived downgrade to None")
	}
	if m.LockCount() != 0 {
		t.Error("table not empty")
	}
}

// TestDowngradeAtomicity: while a conversion from S to a weaker-conflicting
// state happens, no other transaction may sneak in an X between "release"
// and "re-acquire" — Downgrade is a single critical section, so a concurrent
// X request observes either X(old) or IX(new), never a free resource.
func TestDowngradeAtomicity(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.AcquireCtx(context.Background(), 2, "a", X) }()
	time.Sleep(10 * time.Millisecond)
	if err := downgrade(m, 1, "a", IX); err != nil {
		t.Fatal(err)
	}
	// Txn 2's X is still blocked: IX ∦ X.
	select {
	case err := <-got:
		t.Fatalf("X granted while IX held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}
