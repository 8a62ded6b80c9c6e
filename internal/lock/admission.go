package lock

import (
	"context"
	"time"
)

// AdmissionMode selects what a saturated gate does with new work.
type AdmissionMode int

const (
	// AdmitShed makes Admit delay new transactions while the waits-for
	// graph is saturated and shed them with ErrShed once MaxDelay is
	// exhausted. Acquires from already-admitted transactions are unaffected.
	AdmitShed AdmissionMode = iota
	// AdmitDegrade admits every transaction but flips conflicting acquires
	// to fail-fast while saturated: a request that would have queued returns
	// ErrShed immediately (as if WithNoWait had been passed), pushing the
	// retry decision to the caller instead of deepening the queues.
	AdmitDegrade
)

// String implements fmt.Stringer.
func (am AdmissionMode) String() string {
	switch am {
	case AdmitShed:
		return "shed"
	case AdmitDegrade:
		return "degrade"
	}
	return "unknown"
}

// admitPoll is how often a transaction stalled in Admit re-checks the
// waiter depth.
const admitPoll = time.Millisecond

// AdmissionConfig bounds how much queued contention the manager tolerates
// before it starts refusing work. The gate is keyed on live waiter depth —
// the number of transactions currently parked in wait queues — because that
// is the quantity that grows without bound during a contention storm while
// everything else (goroutines, held locks) stays flat.
type AdmissionConfig struct {
	// MaxWaiters is the waiter-depth threshold. The gate engages while
	// WaitingTxns() >= MaxWaiters. Zero or negative disables admission
	// control entirely.
	MaxWaiters int
	// MaxDelay bounds how long Admit stalls a new transaction waiting for
	// the storm to drain before shedding it (AdmitShed mode). Zero means
	// shed immediately when saturated.
	MaxDelay time.Duration
	// Mode selects shedding (refuse Begin) or degradation (fail-fast
	// conflicting acquires).
	Mode AdmissionMode
}

// ConfigureAdmission installs (or replaces) the admission gate. A zero
// MaxWaiters disables it. Safe to call concurrently with acquires.
func (m *Manager) ConfigureAdmission(cfg AdmissionConfig) {
	if cfg.MaxWaiters <= 0 {
		m.admission.Store(nil)
		return
	}
	m.admission.Store(&cfg)
}

// AdmissionConfigured reports the active gate, if any.
func (m *Manager) AdmissionConfigured() (AdmissionConfig, bool) {
	p := m.admission.Load()
	if p == nil {
		return AdmissionConfig{}, false
	}
	return *p, true
}

// saturated reports whether the live waiter depth has reached the
// configured threshold.
func (m *Manager) saturated(cfg *AdmissionConfig) bool {
	return m.wf.size() >= cfg.MaxWaiters
}

// degradeSaturated reports whether degrade-mode fail-fast is in force right
// now: an AdmitDegrade gate is installed and the waiter depth is at or past
// its threshold. Checked on the acquire slow path, before enqueueing.
func (m *Manager) degradeSaturated() bool {
	cfg := m.admission.Load()
	if cfg == nil || cfg.Mode != AdmitDegrade {
		return false
	}
	return m.saturated(cfg)
}

// Admit gates the start of a new transaction. With no gate configured, or
// in AdmitDegrade mode, it admits immediately. In AdmitShed mode it stalls
// — polling the waiter depth every admitPoll — until the storm drains or
// MaxDelay elapses, then sheds with ErrShed. The caller's ctx cancels the
// stall early (returning the ctx error wrapped in a *LockError so callers
// classify uniformly). txn names the transaction being admitted, for the
// error only; no state is recorded for it.
func (m *Manager) Admit(ctx context.Context, txn TxnID) error {
	cfg := m.admission.Load()
	if cfg == nil || cfg.Mode != AdmitShed || !m.saturated(cfg) {
		return nil
	}
	m.admitDelays.Add(1)
	if cfg.MaxDelay <= 0 {
		m.sheds.Add(1)
		return lockErr(txn, "", 0, ErrShed)
	}
	notifyPark(ctx) // about to stall: the admission gate's one sleeping site
	deadline := time.Now().Add(cfg.MaxDelay)
	ticker := time.NewTicker(admitPoll)
	defer ticker.Stop()
	for {
		if cfg.MaxDelay <= 0 || !time.Now().Before(deadline) {
			m.sheds.Add(1)
			return lockErr(txn, "", 0, ErrShed)
		}
		select {
		case <-ctx.Done():
			return lockErr(txn, "", 0, ctx.Err())
		case <-ticker.C:
			// Re-read the config each round so ConfigureAdmission takes
			// effect for transactions already stalled in Admit.
			cfg = m.admission.Load()
			if cfg == nil || cfg.Mode != AdmitShed || !m.saturated(cfg) {
				return nil
			}
		}
	}
}
