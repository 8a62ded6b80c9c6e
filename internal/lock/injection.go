package lock

import (
	"context"
	"time"
)

// Injection describes one synthetic fault to apply to an acquisition call.
// The zero value means "no fault". Delay stalls the request (simulating a
// slow grant) before Err — if non-nil — is returned as the request's
// outcome, wrapped in a *LockError exactly like an organic failure. Typical
// Err values are ErrDeadlockVictim (synthetic victim), ErrTimeout (spurious
// timeout) and ErrWaitDie; any error is accepted.
type Injection struct {
	Err   error
	Delay time.Duration
}

// Injector decides, per acquisition call, whether to inject a synthetic
// fault. Implementations must be safe for concurrent use: InjectAcquire is
// called on the acquire fast path from every client goroutine (with no
// latches held). resilience.Chaos is the canonical implementation —
// deterministic under a fixed seed so chaos tests are reproducible.
type Injector interface {
	InjectAcquire(txn TxnID, r Resource, mode Mode) Injection
}

// SetInjector installs (or, with nil, removes) the fault injector consulted
// once per acquisition call, on its first request, before any latch: once
// per AcquireID, and once per AcquireBatchID however many of its requests
// wait. Safe to call concurrently with acquires; in-flight requests keep the
// injector they already read.
func (m *Manager) SetInjector(inj Injector) {
	if inj == nil {
		m.injector.Store(nil)
		return
	}
	m.injector.Store(&inj)
}

// inject applies the configured injector, if any, to one call's first
// request. It runs before any latch is taken, so a Delay stalls only the
// calling goroutine. Delays respect ctx: cancellation during a synthetic
// stall surfaces as the usual *LockError wrapping ctx.Err().
func (m *Manager) inject(ctx context.Context, txn TxnID, id ResID, mode Mode) error {
	p := m.injector.Load()
	if p == nil {
		return nil
	}
	r := m.Name(id)
	f := (*p).InjectAcquire(txn, r, mode)
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			m.injected.Add(1)
			return lockErr(txn, r, mode, ctx.Err())
		}
	}
	if f.Err != nil {
		m.injected.Add(1)
		return lockErr(txn, r, mode, f.Err)
	}
	return nil
}
