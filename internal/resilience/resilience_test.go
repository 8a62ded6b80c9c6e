package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"colock/internal/lock"
)

func TestClassify(t *testing.T) {
	le := func(cause error) error {
		return &lock.LockError{Txn: 7, Resource: "a", Mode: lock.X, Cause: cause}
	}
	cases := []struct {
		name  string
		err   error
		cause Cause
		retry bool
	}{
		{"nil", nil, "", false},
		{"deadlock", le(lock.ErrDeadlockVictim), CauseDeadlock, true},
		{"wait-die", le(lock.ErrWaitDie), CauseWaitDie, true},
		{"timeout", le(lock.ErrTimeout), CauseTimeout, true},
		{"shed", le(lock.ErrShed), CauseShed, true},
		{"would-block", le(lock.ErrWouldBlock), CauseWouldBlock, true},
		{"attempt-budget", le(context.DeadlineExceeded), CauseTimeout, true},
		{"canceled", le(context.Canceled), CauseCanceled, false},
		{"bare-sentinel", lock.ErrDeadlock, CauseDeadlock, true},
		{"app-error", errors.New("constraint violated"), CauseOther, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cause, retry := Classify(c.err)
			if cause != c.cause || retry != c.retry {
				t.Errorf("Classify(%v) = (%q, %v), want (%q, %v)", c.err, cause, retry, c.cause, c.retry)
			}
		})
	}
}

// A wait-die death must classify as wait-die, not generic deadlock, even
// though it satisfies errors.Is(err, ErrDeadlock) for legacy callers.
func TestWaitDieIsAlsoDeadlock(t *testing.T) {
	err := &lock.LockError{Txn: 2, Resource: "a", Mode: lock.X, Cause: lock.ErrWaitDie}
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Fatal("wait-die death should satisfy errors.Is(err, ErrDeadlock)")
	}
	if cause, _ := Classify(err); cause != CauseWaitDie {
		t.Fatalf("cause = %q, want wait-die", cause)
	}
}

func TestBlockers(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &lock.LockError{
		Txn: 2, Resource: "a", Mode: lock.X, Cause: lock.ErrTimeout,
		Blockers: []lock.TxnID{5, 9},
	})
	got := Blockers(err)
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("Blockers = %v, want [5 9]", got)
	}
	if Blockers(errors.New("plain")) != nil {
		t.Error("plain error should have no blockers")
	}
}

type obsRecorder struct {
	mu      sync.Mutex
	retries []string
	dones   []int
	errs    []error
}

func (o *obsRecorder) Retry(cause string, attempt int) {
	o.mu.Lock()
	o.retries = append(o.retries, cause)
	o.mu.Unlock()
}

func (o *obsRecorder) Done(attempts int, err error) {
	o.mu.Lock()
	o.dones = append(o.dones, attempts)
	o.errs = append(o.errs, err)
	o.mu.Unlock()
}

func TestRetrierSucceedsAfterTransientFailures(t *testing.T) {
	obs := &obsRecorder{}
	r := &Retrier{MaxAttempts: 10, Observer: obs}
	calls := 0
	err := r.Run(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 4 {
			return &lock.LockError{Txn: 1, Resource: "a", Mode: lock.X, Cause: lock.ErrDeadlockVictim}
		}
		return nil
	})
	if err != nil || calls != 4 {
		t.Fatalf("err=%v calls=%d, want nil after 4 attempts", err, calls)
	}
	if len(obs.retries) != 3 || obs.retries[0] != "deadlock" {
		t.Errorf("retries = %v, want 3× deadlock", obs.retries)
	}
	if len(obs.dones) != 1 || obs.dones[0] != 4 || obs.errs[0] != nil {
		t.Errorf("done = %v/%v, want attempts=4 err=nil", obs.dones, obs.errs)
	}
}

func TestRetrierStopsOnNonRetryable(t *testing.T) {
	appErr := errors.New("application bug")
	calls := 0
	r := &Retrier{MaxAttempts: 10}
	err := r.Run(context.Background(), func(ctx context.Context) error {
		calls++
		return appErr
	})
	if !errors.Is(err, appErr) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the app error after one attempt", err, calls)
	}
}

func TestRetrierExhaustsAttempts(t *testing.T) {
	obs := &obsRecorder{}
	r := &Retrier{MaxAttempts: 3, Observer: obs}
	calls := 0
	err := r.Run(context.Background(), func(ctx context.Context) error {
		calls++
		return &lock.LockError{Txn: 1, Resource: "a", Mode: lock.X, Cause: lock.ErrTimeout}
	})
	if !errors.Is(err, lock.ErrTimeout) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want timeout after exactly 3 attempts", err, calls)
	}
	if len(obs.dones) != 1 || obs.dones[0] != 3 || obs.errs[0] == nil {
		t.Errorf("done = %v/%v, want attempts=3 with error", obs.dones, obs.errs)
	}
}

func TestRetrierHonorsParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Retrier{} // unlimited attempts
	calls := 0
	err := r.Run(ctx, func(ctx context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return &lock.LockError{Txn: 1, Resource: "a", Mode: lock.X, Cause: lock.ErrDeadlockVictim}
	})
	if err == nil || calls != 2 {
		t.Fatalf("err=%v calls=%d, want retryable error surfaced after cancel", err, calls)
	}
}

func TestRetrierAttemptTimeout(t *testing.T) {
	r := &Retrier{MaxAttempts: 2, AttemptTimeout: 5 * time.Millisecond}
	deadlines := 0
	err := r.Run(context.Background(), func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			deadlines++
		}
		<-ctx.Done() // burn the whole budget
		return &lock.LockError{Txn: 1, Resource: "a", Mode: lock.X, Cause: ctx.Err()}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want attempt deadline", err)
	}
	if deadlines != 2 {
		t.Fatalf("deadlines seen = %d, want one per attempt", deadlines)
	}
}

func TestCappedExponentialGrowsAndCaps(t *testing.T) {
	b := CappedExponential{Base: time.Millisecond, Cap: 4 * time.Millisecond, Jitter: 0.001}
	start := time.Now()
	for attempt := 1; attempt <= 5; attempt++ {
		if err := b.Pause(context.Background(), attempt, lock.ErrTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// 1+2+4+4+4 = 15ms minimum.
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("total pause %v, want ≥ 15ms (growth then cap)", el)
	}
	// Canceled ctx cuts the pause short.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Pause(ctx, 10, lock.ErrTimeout); err == nil {
		t.Error("pause on dead ctx should return its error")
	}
}

func TestRestartWaitDrainsBlockers(t *testing.T) {
	var mu sync.Mutex
	active := map[lock.TxnID]bool{5: true, 9: true}
	b := RestartWait{
		Active: func(t lock.TxnID) bool { mu.Lock(); defer mu.Unlock(); return active[t] },
		Poll:   100 * time.Microsecond,
		Max:    time.Second,
	}
	err := &lock.LockError{Txn: 2, Resource: "a", Mode: lock.X,
		Cause: lock.ErrWaitDie, Blockers: []lock.TxnID{5, 9}}
	go func() {
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		delete(active, 5)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		delete(active, 9)
		mu.Unlock()
	}()
	start := time.Now()
	if perr := b.Pause(context.Background(), 1, err); perr != nil {
		t.Fatal(perr)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Errorf("pause returned after %v, want ≥ 4ms (both blockers drained)", el)
	}
}

func TestRestartWaitMaxBound(t *testing.T) {
	b := RestartWait{
		Active: func(lock.TxnID) bool { return true }, // never drains
		Poll:   100 * time.Microsecond,
		Max:    3 * time.Millisecond,
	}
	err := &lock.LockError{Txn: 2, Resource: "a", Mode: lock.X,
		Cause: lock.ErrWaitDie, Blockers: []lock.TxnID{5}}
	start := time.Now()
	if perr := b.Pause(context.Background(), 1, err); perr != nil {
		t.Fatal(perr)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("pause ran %v, want bounded near Max", el)
	}
}

func TestRestartWaitFallback(t *testing.T) {
	used := false
	b := RestartWait{
		Active:   func(lock.TxnID) bool { return false },
		Fallback: backoffFunc(func(context.Context, int, error) error { used = true; return nil }),
	}
	// No blocker set on the error → fallback paces the restart.
	if err := b.Pause(context.Background(), 1, lock.ErrShed); err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Error("fallback not consulted for blocker-less error")
	}
}

type backoffFunc func(context.Context, int, error) error

func (f backoffFunc) Pause(ctx context.Context, a int, e error) error { return f(ctx, a, e) }

func TestChaosDeterministicUnderSeed(t *testing.T) {
	mk := func() *Chaos {
		return NewChaos(ChaosConfig{Seed: 42, VictimRate: 0.2, TimeoutRate: 0.1, DelayRate: 0.05})
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		fa := a.InjectAcquire(1, "r", lock.S)
		fb := b.InjectAcquire(1, "r", lock.S)
		if !errors.Is(fa.Err, fb.Err) && fa.Err != fb.Err || fa.Delay != fb.Delay {
			t.Fatalf("call %d diverged: %+v vs %+v", i, fa, fb)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Victims == 0 || sa.Timeouts == 0 || sa.Delays == 0 {
		t.Errorf("expected every fault kind at these rates over 500 draws: %+v", sa)
	}
}

func TestChaosZeroRatesInjectNothing(t *testing.T) {
	c := NewChaos(ChaosConfig{Seed: 1})
	for i := 0; i < 100; i++ {
		if f := c.InjectAcquire(1, "r", lock.X); f.Err != nil || f.Delay != 0 {
			t.Fatalf("zero-rate chaos injected %+v", f)
		}
	}
}

// End-to-end: a chaos injector installed on a real manager produces
// *LockError failures indistinguishable from organic ones, counted by the
// manager, and the Retrier rides through them.
func TestChaosThroughManagerAndRetrier(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	m.SetInjector(NewChaos(ChaosConfig{Seed: 7, VictimRate: 0.5}))
	r := &Retrier{} // unlimited, immediate
	var txn lock.TxnID
	err := r.Run(context.Background(), func(ctx context.Context) error {
		txn++
		if err := m.AcquireCtx(ctx, txn, "a", lock.X); err != nil {
			m.ReleaseAll(txn)
			return err
		}
		m.ReleaseAll(txn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().InjectedFaults == 0 {
		// Seed 7 at 50% makes the first few draws overwhelmingly likely to
		// include a victim; if not, the retrier just succeeded first try.
		t.Log("no fault injected before first success (seed-dependent)")
	}
	m.SetInjector(nil)
	if err := m.AcquireCtx(context.Background(), 999, "a", lock.X); err != nil {
		t.Fatalf("after clearing injector: %v", err)
	}
	m.ReleaseAll(999)
}
