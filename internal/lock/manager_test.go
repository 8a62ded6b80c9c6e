package lock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{
		"detect": PolicyDetect, "waitdie": PolicyWaitDie, "none": PolicyNone,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) should fail")
	}
}

func TestGrantCompatible(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 3, "a", IS); err != nil {
		t.Fatal(err)
	}
	if got := m.LockCount(); got != 3 {
		t.Errorf("LockCount = %d, want 3", got)
	}
}

func TestConflictBlocksUntilRelease(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.AcquireCtx(context.Background(), 2, "a", S) }()
	select {
	case err := <-got:
		t.Fatalf("S granted while X held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken after release")
	}
	if heldMode(m, 2, "a") != S {
		t.Errorf("txn 2 holds %v, want S", heldMode(m, 2, "a"))
	}
}

func TestTryAcquire(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X, WithNoWait()); err != nil {
		t.Fatal(err)
	}
	err := m.AcquireCtx(context.Background(), 2, "a", IS, WithNoWait())
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want ErrWouldBlock, got %v", err)
	}
	if err := m.AcquireCtx(context.Background(), 1, "a", X, WithNoWait()); err != nil {
		t.Fatalf("re-acquire by holder failed: %v", err)
	}
}

func TestRegrantIsNoop(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, "a", IS); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Regrants != 2 {
		t.Errorf("Regrants = %d, want 2", st.Regrants)
	}
	if st.Grants != 1 {
		t.Errorf("Grants = %d, want 1", st.Grants)
	}
	if heldMode(m, 1, "a") != X {
		t.Errorf("mode = %v, want X", heldMode(m, 1, "a"))
	}
}

func TestConversionToSupremum(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", IX); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(m, 1, "a"); got != SIX {
		t.Errorf("after IX+S conversion mode = %v, want SIX", got)
	}
	if m.Stats().Conversions != 1 {
		t.Errorf("Conversions = %d, want 1", m.Stats().Conversions)
	}
}

func TestConversionWaitsForOtherHolders(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "a", S); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.AcquireCtx(context.Background(), 1, "a", X) }() // upgrade blocked by txn 2
	select {
	case err := <-got:
		t.Fatalf("upgrade granted while S held by other: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if heldMode(m, 1, "a") != X {
		t.Errorf("mode = %v, want X", heldMode(m, 1, "a"))
	}
}

// TestConversionPriority: a conversion jumps ahead of plain waiters.
func TestConversionPriority(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "a", S); err != nil {
		t.Fatal(err)
	}
	// Txn 3 queues for X first.
	got3 := make(chan error, 1)
	go func() { got3 <- m.AcquireCtx(context.Background(), 3, "a", X) }()
	time.Sleep(20 * time.Millisecond)
	// Txn 1 requests upgrade; placed ahead of txn 3.
	got1 := make(chan error, 1)
	go func() { got1 <- m.AcquireCtx(context.Background(), 1, "a", X) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(2)
	if err := <-got1; err != nil {
		t.Fatalf("conversion: %v", err)
	}
	select {
	case err := <-got3:
		t.Fatalf("plain waiter granted before conversion holder released: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-got3; err != nil {
		t.Fatal(err)
	}
}

// TestFIFOFairness: a new S request must queue behind a waiting X request
// even though it is compatible with the granted group (no starvation).
func TestFIFOFairness(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	gotX := make(chan error, 1)
	go func() { gotX <- m.AcquireCtx(context.Background(), 2, "a", X) }()
	time.Sleep(20 * time.Millisecond)
	gotS := make(chan error, 1)
	go func() { gotS <- m.AcquireCtx(context.Background(), 3, "a", S) }()
	select {
	case err := <-gotS:
		t.Fatalf("S bypassed waiting X: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-gotX; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-gotS; err != nil {
		t.Fatal(err)
	}
}

func TestReleaseSingleResource(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, "b", X); err != nil {
		t.Fatal(err)
	}
	release(m, 1, "a")
	if heldMode(m, 1, "a") != None {
		t.Error("a still held after Release")
	}
	if heldMode(m, 1, "b") != X {
		t.Error("b dropped by Release of a")
	}
	release(m, 1, "a") // releasing unheld is a no-op
	release(m, 9, "b")
	if heldMode(m, 1, "b") != X {
		t.Error("b dropped by foreign Release")
	}
}

func TestHeldLocksOrdered(t *testing.T) {
	m := NewManager(Options{})
	for _, r := range []Resource{"db", "seg", "rel", "obj"} {
		if err := m.AcquireCtx(context.Background(), 7, r, IX); err != nil {
			t.Fatal(err)
		}
	}
	held := m.HeldLocks(7)
	if len(held) != 4 {
		t.Fatalf("held %d locks, want 4", len(held))
	}
	want := []Resource{"db", "seg", "rel", "obj"}
	for i, h := range held {
		if h.Resource != want[i] {
			t.Errorf("held[%d] = %q, want %q (acquisition order)", i, h.Resource, want[i])
		}
		if h.Mode != IX {
			t.Errorf("held[%d].Mode = %v", i, h.Mode)
		}
	}
}

func TestHolders(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", IS)
	_ = m.AcquireCtx(context.Background(), 2, "a", IX)
	h := holders(m, "a")
	if len(h) != 2 || h[1] != IS || h[2] != IX {
		t.Errorf("holders = %v", h)
	}
	if len(holders(m, "nope")) != 0 {
		t.Error("holders of unknown resource non-empty")
	}
}

func TestInvalidMode(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 1, "a", None); err == nil {
		t.Error("Acquire(None) succeeded")
	}
	if err := m.AcquireCtx(context.Background(), 1, "a", Mode(42)); err == nil {
		t.Error("Acquire(invalid) succeeded")
	}
}

func TestEventTrace(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	m := NewManager(Options{Sinks: []EventSink{sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})}})
	_ = m.AcquireCtx(context.Background(), 1, "a", S)
	_ = m.AcquireCtx(context.Background(), 1, "a", X) // conversion
	m.ReleaseAll(1)
	mu.Lock()
	defer mu.Unlock()
	kinds := make([]string, len(events))
	for i, e := range events {
		kinds[i] = e.Kind
	}
	want := []string{"grant", "convert", "release", "release-all"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want kinds %v", events, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event[%d] = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestStatsCounters(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", X)
	_ = m.AcquireCtx(context.Background(), 2, "a", S, WithNoWait()) // conflict, no wait
	m.ReleaseAll(1)
	st := m.Stats()
	if st.Requests != 2 || st.Grants != 1 || st.Conflicts != 1 || st.Waits != 0 || st.Releases != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Requests: 5, Grants: 3, MaxTableSize: 7}
	b := Stats{Requests: 2, Grants: 1, MaxTableSize: 9}
	sum := a.Add(b)
	if sum.Requests != 7 || sum.Grants != 4 || sum.MaxTableSize != 9 {
		t.Errorf("Add = %+v", sum)
	}
	d := sum.Sub(b)
	if d.Requests != 5 || d.Grants != 3 {
		t.Errorf("Sub = %+v", d)
	}
}

// TestConcurrentStress hammers a small resource set from many goroutines and
// checks the manager never grants incompatible locks simultaneously.
func TestConcurrentStress(t *testing.T) {
	m := NewManager(Options{})
	resources := []Resource{"r0", "r1", "r2"}
	var wg sync.WaitGroup
	var violations sync.Map
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id TxnID) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				r := resources[int(id)%len(resources)]
				mode := S
				if k%3 == 0 {
					mode = X
				}
				if err := m.AcquireCtx(context.Background(), id, r, mode); err != nil {
					m.ReleaseAll(id)
					continue
				}
				// Verify the granted group is internally compatible.
				hs := holders(m, r)
				for t1, m1 := range hs {
					for t2, m2 := range hs {
						if t1 != t2 && !m1.Compatible(m2) {
							violations.Store(r, [2]Mode{m1, m2})
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
}
