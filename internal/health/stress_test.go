package health

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/resilience"
	"colock/internal/store"
	"colock/internal/txn"
)

// TestStormSLOTransitionsWithAutoAdmission is the PR's acceptance pin: the
// PR 6 hot-key write storm (wait-die, seeded chaos injector, RunWithRetry)
// with the health monitor attached drives the SLO state machine
// ok → warn → critical, the auto-admission policy installs the degraded
// gate on critical, and draining the storm recovers to ok and removes it.
//
// Determinism does not come from fixing the storm's schedule — it comes
// from the monitor's manual clock: each storm phase runs until the LIVE
// window provably satisfies (or cannot satisfy) the breach predicate, and
// only then is the window closed with Advance. The seeded chaos injector
// adds deterministic extra churn on top of the real wait-die deaths.
func TestStormSLOTransitionsWithAutoAdmission(t *testing.T) {
	start := time.Now()
	const win = time.Hour // manual clock: real time never crosses a boundary

	st := store.PaperDatabase()
	nm := core.NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{Policy: lock.PolicyWaitDie})
	p := core.NewProtocol(mgr, st, nm, core.Options{})
	tm := txn.NewManager(p, st)

	mon := NewMonitor(Options{
		Window: win, Retain: 16, TopK: 8, Start: start,
		// The abort-rate denominator counts every grant, intention locks
		// included (~6 per committed transaction here), so per-grant abort
		// rates run well below per-transaction intuition: 0.01 ≈ one death
		// per ~16 commits.
		SLO:         SLO{MaxAbortRate: 0.01, WarnAfter: 1, CritAfter: 2, RecoverAfter: 2},
		WaiterDepth: mgr.WaitingTxns,
	})
	mgr.AttachSink(mon)
	p.OnFastPathHit(mon.RecordFastPathHit)

	var tmu sync.Mutex
	var transitions []Transition
	mon.OnTransition(func(tr Transition) {
		tmu.Lock()
		transitions = append(transitions, tr)
		tmu.Unlock()
	})
	degraded := lock.AdmissionConfig{MaxWaiters: 2, MaxDelay: time.Millisecond, Mode: lock.AdmitDegrade}
	auto := mon.EnableAutoAdmission(mgr, degraded)

	chaos := resilience.NewChaos(resilience.ChaosConfig{
		Seed: 42, VictimRate: 0.10, TimeoutRate: 0.05, DelayRate: 0.05,
		Delay: 100 * time.Microsecond,
	})
	mgr.SetInjector(chaos)
	defer mgr.SetInjector(nil)

	// One short path per transaction keeps the grant-count dilution of the
	// per-grant abort rate low and stable: adding a second (read) path
	// halves the steady-state rate and parks it right at the poll
	// threshold on slow machines.
	hot := store.P("cells", "c1", "robots", "r1", "trajectory")

	aborts := func(ws WindowStats) uint64 {
		return ws.Counts[RateVictims] + ws.Counts[RateWaitDie] + ws.Counts[RateTimeouts]
	}

	// stormPhase hammers the hot key with every worker until the live
	// window's abort rate is provably past the threshold (with margin for
	// in-flight stragglers), then drains the workers.
	stormPhase := func(label string) {
		var stop, failed bool
		var mu sync.Mutex
		stopped := func() bool { mu.Lock(); defer mu.Unlock(); return stop }
		var wg sync.WaitGroup
		workers := 8
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopped() {
					err := tm.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
						if err := tx.LockPath(nil, hot, lock.X); err != nil {
							return err
						}
						runtime.Gosched()
						return nil
					},
						txn.WithMaxAttempts(0),
						txn.WithBackoff(resilience.CappedExponential{
							Base: 20 * time.Microsecond, Cap: 500 * time.Microsecond,
						}),
						txn.WithRetryObserver(mon))
					if err != nil {
						mu.Lock()
						failed = true
						mu.Unlock()
						return
					}
				}
			}()
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			// 3× the SLO threshold leaves margin for the handful of
			// straggler grants the draining workers still deliver.
			cur := mon.Current()
			if a := aborts(cur); a >= 500 && cur.AbortRate() >= 0.03 {
				break
			}
			if time.Now().After(deadline) {
				mu.Lock()
				stop = true
				mu.Unlock()
				wg.Wait()
				t.Fatalf("%s: storm never breached: current window %+v", label, mon.Current())
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		stop = true
		mu.Unlock()
		wg.Wait()
		if failed {
			t.Fatalf("%s: a RunWithRetry worker gave up (unbounded retries must converge)", label)
		}
	}

	// Phase 1: one breaching window → warn.
	stormPhase("phase 1")
	if got := mon.Advance(start.Add(1 * win)); got != StateWarn {
		t.Fatalf("after phase 1: state %v, want warn (window: %+v)", got, mon.Windows(1))
	}
	if auto.Engaged() {
		t.Fatal("auto-admission engaged on warn")
	}

	// Phase 2: a second consecutive breaching window → critical; the
	// policy installs the degraded gate.
	stormPhase("phase 2")
	if got := mon.Advance(start.Add(2 * win)); got != StateCritical {
		t.Fatalf("after phase 2: state %v, want critical", got)
	}
	if !auto.Engaged() {
		t.Fatal("auto-admission did not engage on critical")
	}
	if cfg, ok := mgr.AdmissionConfigured(); !ok || cfg.Mode != lock.AdmitDegrade || cfg.MaxWaiters != degraded.MaxWaiters {
		t.Fatalf("gate while critical = %+v ok=%v, want the degraded config", cfg, ok)
	}

	// Quiesce: two empty windows → ok; the gate is rolled back.
	if got := mon.Advance(start.Add(3 * win)); got != StateCritical {
		t.Fatalf("one clean window eased critical to %v (hysteresis broken)", got)
	}
	if got := mon.Advance(start.Add(4 * win)); got != StateOK {
		t.Fatalf("after quiesce: state %v, want ok", got)
	}
	if auto.Engaged() {
		t.Fatal("auto-admission still engaged after recovery")
	}
	if _, ok := mgr.AdmissionConfigured(); ok {
		t.Fatal("degraded gate not removed after recovery")
	}

	// The exact burn-and-recover sequence, in order.
	tmu.Lock()
	defer tmu.Unlock()
	if len(transitions) != 3 {
		t.Fatalf("got %d transitions, want 3: %+v", len(transitions), transitions)
	}
	wantSeq := []struct{ from, to State }{
		{StateOK, StateWarn}, {StateWarn, StateCritical}, {StateCritical, StateOK},
	}
	for i, w := range wantSeq {
		if transitions[i].From != w.from || transitions[i].To != w.to {
			t.Fatalf("transition %d = %v→%v, want %v→%v", i, transitions[i].From, transitions[i].To, w.from, w.to)
		}
	}

	// The storm's hot key leads the contention table, X-mode keyed.
	top := mon.Profile().TopK(3)
	if len(top) == 0 {
		t.Fatal("empty top-K after a storm")
	}
	if !strings.Contains(string(top[0].Resource), "trajectory") || top[0].Mode != "X" {
		t.Fatalf("top contended key = %s/%s, want the trajectory leaf in X", top[0].Resource, top[0].Mode)
	}

	// Both breaching windows carry real windowed series data: aborts,
	// grants, and retry counts.
	wins := mon.Windows(0)
	if len(wins) != 4 {
		t.Fatalf("retained %d windows, want 4", len(wins))
	}
	for _, e := range []int{0, 1} {
		ws := wins[e]
		if aborts(ws) < 500 || ws.Counts[RateAcquires] == 0 || ws.Counts[RateRetries] == 0 {
			t.Fatalf("storm window %d too empty: %+v", e, ws)
		}
	}
}
