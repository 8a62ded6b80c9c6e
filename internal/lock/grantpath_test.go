package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the constant-time grant path: granted-group summaries
// (entry.checkSummary vs a fold over holder storage), pooled wait blocks,
// and deferred deadlock detection (immediate and deferred arming agree on
// the canonical cycles), plus allocation regressions for the pooled
// introspection scratch buffers and the blocked hand-off.

// assertSummaries latches every shard and asserts each live entry's
// summaries match a fold over its storage, then that the held index matches
// the table (the manager is quiescent: no ReleaseAll is mid-sweep).
func assertSummaries(t *testing.T, m *Manager) {
	t.Helper()
	for _, s := range m.shards {
		s.mu.Lock()
		for r, e := range s.res {
			if err := e.checkSummary(); err != nil {
				s.mu.Unlock()
				t.Fatalf("entry %q: summary mismatch: %v", r, err)
			}
		}
		s.mu.Unlock()
	}
	if err := checkHeldIndex(m, true); err != nil {
		t.Fatalf("held index: %v", err)
	}
}

// TestSummaryMatchesFoldSequential drives one manager through a long
// deterministic random mix of grants, conversions, downgrades and releases
// — including a hot entry with many holders — checking every entry's
// summaries against the fold after each step.
func TestSummaryMatchesFoldSequential(t *testing.T) {
	m := NewManager(Options{})
	rng := rand.New(rand.NewSource(9))
	resources := []Resource{"root", "cell/a", "cell/b", "leaf/1", "leaf/2"}
	modes := []Mode{IS, IX, S, SIX, X}
	const txns = 24 // many concurrent IS holders on "root"

	for step := 0; step < 4000; step++ {
		txn := TxnID(1 + rng.Intn(txns))
		r := resources[rng.Intn(len(resources))]
		switch op := rng.Intn(10); {
		case op < 6: // acquire (no-wait so a single goroutine never parks)
			mode := modes[rng.Intn(len(modes))]
			if r == "root" && op < 4 {
				mode = IS // keep the root hot with compatible holders
			}
			err := m.AcquireCtx(context.Background(), txn, r, mode, WithNoWait())
			if err != nil && !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("step %d: acquire: %v", step, err)
			}
		case op < 7: // downgrade (skip targets the held mode does not cover)
			if held := heldMode(m, txn, r); held != None {
				down := []Mode{None, IS, IX, S}[rng.Intn(4)]
				if held.Covers(down) {
					if err := downgrade(m, txn, r, down); err != nil {
						t.Fatalf("step %d: downgrade: %v", step, err)
					}
				}
			}
		case op < 9: // release one resource
			release(m, txn, r)
		default: // release everything
			m.ReleaseAll(txn)
		}
		assertSummaries(t, m)
	}
	for txn := TxnID(1); txn <= txns; txn++ {
		m.ReleaseAll(txn)
	}
	assertSummaries(t, m)
	if n := m.LockCount(); n != 0 {
		t.Fatalf("locks leaked: %d", n)
	}
}

// TestSummaryStressConcurrent hammers the manager from many goroutines
// (blocking acquires, conversions, downgrades, deadlock resolution) while a
// checker goroutine repeatedly validates every entry's summaries under the
// shard latch, and the held index against the table. Run with -race this also exercises the pooled waiter
// lifecycle under grant/timeout/victim races.
func TestSummaryStressConcurrent(t *testing.T) {
	m := NewManager(Options{})
	resources := []Resource{"root", "a", "b", "c", "d"}
	modes := []Mode{IS, IX, S, SIX, X}
	const workers = 12

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
			for _, s := range m.shards {
				s.mu.Lock()
				for r, e := range s.res {
					if err := e.checkSummary(); err != nil {
						s.mu.Unlock()
						t.Errorf("entry %q: summary mismatch: %v", r, err)
						return
					}
				}
				s.mu.Unlock()
			}
			if err := checkHeldIndex(m, false); err != nil {
				t.Errorf("held index: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id TxnID, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 150; k++ {
				r := resources[rng.Intn(len(resources))]
				mode := modes[rng.Intn(len(modes))]
				err := m.AcquireCtx(context.Background(), id, r, mode,
					WithTimeout(time.Duration(1+rng.Intn(3))*time.Millisecond))
				if err != nil {
					m.ReleaseAll(id)
					continue
				}
				if rng.Intn(4) == 0 {
					_ = downgrade(m, id, r, IS)
				}
				if rng.Intn(3) == 0 {
					m.ReleaseAll(id)
				}
			}
			m.ReleaseAll(id)
		}(TxnID(w+1), int64(w)*7919)
	}
	wg.Wait()
	close(stop)
	checker.Wait()

	assertSummaries(t, m)
	if n := m.LockCount(); n != 0 {
		t.Fatalf("locks leaked: %d", n)
	}
}

// detectionConfigs are the two arming windows whose observable semantics
// must agree: detection armed for immediate pickup, and deferred by a short
// window.
func detectionConfigs() map[string]Options {
	return map[string]Options{
		"immediate": {DeadlockDefer: -1},
		"deferred":  {DeadlockDefer: 200 * time.Microsecond},
	}
}

// acquireParked starts txn's request for r in mode on its own goroutine and
// returns once the request has parked behind a conflict — its deadlock check,
// if any, already armed — with the channel its outcome arrives on.
func acquireParked(t *testing.T, m *Manager, txn TxnID, r Resource, mode Mode) <-chan error {
	t.Helper()
	parked := make(chan struct{})
	res := make(chan error, 1)
	ctx := WithParkNotify(context.Background(), func() { close(parked) })
	go func() { res <- m.AcquireCtx(ctx, txn, r, mode) }()
	select {
	case <-parked:
	case err := <-res:
		t.Fatalf("txn %d: request for %q returned without parking: %v", txn, r, err)
	}
	return res
}

// TestDeferredEagerEquivalenceTwoTxn runs the canonical AB-BA cycle under
// both arming windows: the younger transaction must be the victim, the
// survivor must complete, and exactly one deadlock must be counted.
func TestDeferredEagerEquivalenceTwoTxn(t *testing.T) {
	for name, opts := range detectionConfigs() {
		t.Run(name, func(t *testing.T) {
			m := NewManager(opts)
			defer m.Close()
			if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
				t.Fatal(err)
			}
			if err := m.AcquireCtx(context.Background(), 2, "b", X); err != nil {
				t.Fatal(err)
			}
			r1 := acquireParked(t, m, 1, "b", X)

			err2 := m.AcquireCtx(context.Background(), 2, "a", X) // closes the cycle
			if !errors.Is(err2, ErrDeadlock) {
				t.Fatalf("txn 2: want ErrDeadlock, got %v", err2)
			}
			m.ReleaseAll(2)
			if err := <-r1; err != nil {
				t.Fatalf("txn 1 (survivor): %v", err)
			}
			m.ReleaseAll(1)
			if got := m.Stats().Deadlocks; got != 1 {
				t.Errorf("Deadlocks = %d, want 1", got)
			}
		})
	}
}

// TestDeferredEagerEquivalenceThreeTxn runs the 3-txn cross-shard cycle
// a→b→c→a under both arming windows; txn 3 (youngest) must die, the chain
// must drain.
func TestDeferredEagerEquivalenceThreeTxn(t *testing.T) {
	for name, opts := range detectionConfigs() {
		t.Run(name, func(t *testing.T) {
			m := NewManager(opts)
			defer m.Close()
			_ = m.AcquireCtx(context.Background(), 1, "a", X)
			_ = m.AcquireCtx(context.Background(), 2, "b", X)
			_ = m.AcquireCtx(context.Background(), 3, "c", X)

			r1 := acquireParked(t, m, 1, "b", X)
			r2 := acquireParked(t, m, 2, "c", X)

			err3 := m.AcquireCtx(context.Background(), 3, "a", X)
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
			if got := m.Stats().Deadlocks; got != 1 {
				t.Errorf("Deadlocks = %d, want 1", got)
			}
		})
	}
}

// TestDeferredDetectionCounters checks the Stats plumbing: a resolved
// deferred deadlock must surface DeferredDetections and DetectorRuns, and
// ordinary grants must hit the summary fast path.
func TestDeferredDetectionCounters(t *testing.T) {
	m := NewManager(Options{DeadlockDefer: 200 * time.Microsecond})
	defer m.Close()
	_ = m.AcquireCtx(context.Background(), 1, "a", X)
	_ = m.AcquireCtx(context.Background(), 2, "b", X)
	r1 := acquireParked(t, m, 1, "b", X)
	if err := m.AcquireCtx(context.Background(), 2, "a", X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-r1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)

	st := m.Stats()
	if st.DeferredDetections != 2 {
		t.Errorf("DeferredDetections = %d, want 2 (both waiters armed)", st.DeferredDetections)
	}
	if st.DetectorRuns == 0 {
		t.Errorf("DetectorRuns = 0, want > 0")
	}
	if st.SummaryFastChecks == 0 {
		t.Errorf("SummaryFastChecks = 0, want > 0")
	}
	if st.Deadlocks != 1 {
		t.Errorf("Deadlocks = %d, want 1", st.Deadlocks)
	}
}

// TestManagerOwnsNoGoroutine: deadlock checks run on the blocked requests'
// own goroutines, so once a default-window AB-BA cycle is resolved and every
// transaction has released, the goroutine count is back at its baseline —
// with no Close.
func TestManagerOwnsNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", X)
	_ = m.AcquireCtx(context.Background(), 2, "b", X)
	r1 := acquireParked(t, m, 1, "b", X)
	if err := m.AcquireCtx(context.Background(), 2, "a", X); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("txn 2: want ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-r1; err != nil {
		t.Fatalf("txn 1 (survivor): %v", err)
	}
	m.ReleaseAll(1)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines = %d after the cycle resolved, baseline %d", n, baseline)
	}
}

// TestConcurrentDisjointCycles forms 16 disjoint AB-BA cycles at once: every
// cycle loses exactly its younger member, whichever of its waiters walks
// first, and every older member completes.
func TestConcurrentDisjointCycles(t *testing.T) {
	const cycles = 16
	m := NewManager(Options{DeadlockDefer: 100 * time.Microsecond})
	ctx := context.Background()
	second := make(map[TxnID]Resource, 2*cycles)
	for k := 0; k < cycles; k++ {
		older, younger := TxnID(2*k+1), TxnID(2*k+2)
		a, b := Resource(fmt.Sprintf("a%d", k)), Resource(fmt.Sprintf("b%d", k))
		if err := m.AcquireCtx(ctx, older, a, X); err != nil {
			t.Fatal(err)
		}
		if err := m.AcquireCtx(ctx, younger, b, X); err != nil {
			t.Fatal(err)
		}
		second[older], second[younger] = b, a
	}
	var victims, survivors atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for txn, r := range second {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := m.AcquireCtx(ctx, txn, r, X)
			switch {
			case errors.Is(err, ErrDeadlock):
				victims.Add(1)
				if txn%2 == 1 {
					t.Errorf("txn %d: the older member was the victim", txn)
				}
			case err != nil:
				t.Errorf("txn %d: %v", txn, err)
			default:
				survivors.Add(1)
			}
			m.ReleaseAll(txn)
		}()
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cycles not resolved")
	}
	if v, s := victims.Load(), survivors.Load(); v != cycles || s != cycles {
		t.Errorf("victims = %d, survivors = %d; want %d each", v, s, cycles)
	}
	if got := m.Stats().Deadlocks; got != cycles {
		t.Errorf("Deadlocks = %d, want %d", got, cycles)
	}
	if n := m.LockCount(); n != 0 {
		t.Errorf("locks leaked: %d", n)
	}
}

// TestDeferralElidesWalkForShortWaits: a conflict that resolves within the
// deferral window should never wake the detector — the whole point of
// deferring is that short waits cost no graph walk.
func TestDeferralElidesWalkForShortWaits(t *testing.T) {
	m := NewManager(Options{DeadlockDefer: time.Second})
	defer m.Close()
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	got := acquireParked(t, m, 2, "a", X) // blocked, but well inside the window
	m.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	st := m.Stats()
	if st.DeferredDetections == 0 {
		t.Errorf("DeferredDetections = 0, want > 0 (the waiter was armed)")
	}
	if st.DetectorRuns != 0 {
		t.Errorf("DetectorRuns = %d, want 0 (wait resolved inside the window)", st.DetectorRuns)
	}
}

// TestIntrospectionScratchZeroAlloc pins the satellite requirement: with
// the pooled scratch buffers warmed up, the waits-for expansion of a
// blocked transaction allocates nothing.
func TestIntrospectionScratchZeroAlloc(t *testing.T) {
	m := NewManager(Options{Policy: PolicyNone})
	for txn := TxnID(1); txn <= 6; txn++ {
		if err := m.AcquireCtx(context.Background(), txn, "hot", S); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan error, 1)
	go func() { got <- m.AcquireCtx(context.Background(), 7, "hot", X) }()
	for i := 0; i < 200 && m.WaitingTxns() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if m.WaitingTxns() != 1 {
		t.Fatal("waiter never blocked")
	}

	sc := getBlockScratch()
	// Warm the scratch so map growth is out of the measurement.
	clear(sc.seen)
	_, _, sc.out = m.appendWaitsFor(7, sc.out[:0], sc.seen)
	allocs := testing.AllocsPerRun(100, func() {
		clear(sc.seen)
		_, _, sc.out = m.appendWaitsFor(7, sc.out[:0], sc.seen)
	})
	if len(sc.out) != 6 {
		t.Fatalf("blockers = %d, want 6", len(sc.out))
	}
	putBlockScratch(sc)
	if allocs != 0 {
		t.Errorf("appendWaitsFor allocs/op = %.1f, want 0", allocs)
	}

	m.ReleaseAll(1)
	for txn := TxnID(2); txn <= 6; txn++ {
		m.ReleaseAll(txn)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(7)
}

// TestDegradeGateZeroAlloc: the degrade gate is consulted on every conflicted
// acquire, so with many transactions parked it must read the waiter depth,
// not snapshot the waiters.
func TestDegradeGateZeroAlloc(t *testing.T) {
	m := NewManager(Options{Policy: PolicyNone})
	defer m.Close()
	const parked = 64
	ctx, cancel := context.WithCancel(context.Background())
	if err := m.AcquireCtx(ctx, 1, "hot", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, parked)
	for i := 0; i < parked; i++ {
		txn := TxnID(2 + i)
		go func() { done <- m.AcquireCtx(ctx, txn, "hot", S) }()
	}
	for i := 0; i < 2000 && m.WaitingTxns() < parked; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := m.WaitingTxns(); got != parked {
		t.Fatalf("%d waiters parked, want %d", got, parked)
	}
	m.ConfigureAdmission(AdmissionConfig{MaxWaiters: parked, Mode: AdmitDegrade})
	saturated := false
	allocs := testing.AllocsPerRun(100, func() { saturated = m.degradeSaturated() })
	if !saturated {
		t.Error("gate not saturated at its own threshold")
	}
	if allocs != 0 {
		t.Errorf("degradeSaturated allocs/op = %.1f with %d waiters, want 0", allocs, parked)
	}
	cancel()
	for i := 0; i < parked; i++ {
		<-done
	}
	m.ReleaseAll(1)
}

// TestRefusalCounters: the three request-time refusals — a no-wait
// conflict, a degrade-mode shed and a wait-die death, tried in that order —
// each count one conflict and fail with their own error; only a shed counts
// in Sheds and DegradedAcquires and emits a shed event, only a wait-die
// death counts a deadlock and emits a victim event, and a no-wait conflict
// emits none. Holder 5 is younger than the parked waiter 3 and older than
// the requester 7, so under wait-die 3 may wait and 7 must die. Each case
// runs twice: as a single request, and as the middle request of a batch,
// whose refusal must leave the first request granted and the last unmade.
func TestRefusalCounters(t *testing.T) {
	for _, tc := range []struct {
		name            string
		policy          Policy
		degrade, noWait bool
		wantErr         error
		want            Stats // the refusal's Conflicts, Sheds, DegradedAcquires and Deadlocks
		wantEvent       EventKind
	}{
		{"no-wait", PolicyDetect, false, true, ErrWouldBlock, Stats{Conflicts: 1}, KindOther},
		{"no-wait-before-shed", PolicyDetect, true, true, ErrWouldBlock, Stats{Conflicts: 1}, KindOther},
		{"shed", PolicyDetect, true, false, ErrShed, Stats{Conflicts: 1, Sheds: 1, DegradedAcquires: 1}, KindShed},
		{"shed-before-wait-die", PolicyWaitDie, true, false, ErrShed, Stats{Conflicts: 1, Sheds: 1, DegradedAcquires: 1}, KindShed},
		{"wait-die", PolicyWaitDie, false, false, ErrWaitDie, Stats{Conflicts: 1, Deadlocks: 1}, KindVictim},
	} {
		for _, batch := range []bool{false, true} {
			name := tc.name
			if batch {
				name += "-in-batch"
			}
			t.Run(name, func(t *testing.T) {
				var events []Event
				m := NewManager(Options{Policy: tc.policy, Sinks: []EventSink{sinkFunc(func(e Event) {
					if e.Txn == 7 && e.Resource == "a" {
						events = append(events, e)
					}
				})}})
				if err := m.AcquireCtx(context.Background(), 5, "a", X); err != nil {
					t.Fatal(err)
				}
				parked := acquireParked(t, m, 3, "a", X)
				if tc.degrade {
					m.ConfigureAdmission(AdmissionConfig{MaxWaiters: 1, Mode: AdmitDegrade})
				}
				var opts []AcquireOption
				if tc.noWait {
					opts = append(opts, WithNoWait())
				}
				before := m.Stats()
				var err error
				if batch {
					err = m.AcquireBatch(context.Background(), 7, []BatchReq{{"p", IS}, {"a", X}, {"q", X}}, opts...)
				} else {
					err = m.AcquireCtx(context.Background(), 7, "a", X, opts...)
				}
				d := m.Stats().Sub(before)
				if batch && (d.Requests != 2 || heldMode(m, 7, "p") != IS || heldMode(m, 7, "q") != None) {
					t.Errorf("batch made %d requests and left p %v and q %v, want 2, IS and nothing",
						d.Requests, heldMode(m, 7, "p"), heldMode(m, 7, "q"))
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("txn 7 returned %v, want %v", err, tc.wantErr)
				}
				var le *LockError
				var blockers []TxnID
				if errors.As(err, &le) {
					blockers = slices.Clone(le.Blockers)
					slices.Sort(blockers)
				}
				if !slices.Equal(blockers, []TxnID{3, 5}) {
					t.Errorf("blockers = %v, want 3 and 5", blockers)
				}
				got := Stats{Conflicts: d.Conflicts, Sheds: d.Sheds, DegradedAcquires: d.DegradedAcquires, Deadlocks: d.Deadlocks}
				if got != tc.want {
					t.Errorf("counters = %+v, want %+v", got, tc.want)
				}
				switch {
				case tc.wantEvent == KindOther && len(events) != 0:
					t.Errorf("events = %+v, want none", events)
				case tc.wantEvent != KindOther && (len(events) != 1 || events[0].Code != tc.wantEvent ||
					events[0].WaitDie != (tc.wantEvent == KindVictim) || !slices.Equal(events[0].Blockers, le.Blockers)):
					t.Errorf("events = %+v, want one %v with the blockers", events, tc.wantEvent)
				}
				m.ReleaseAll(5)
				if err := <-parked; err != nil {
					t.Fatal(err)
				}
				m.ReleaseAll(3)
				m.ReleaseAll(7)
			})
		}
	}
}

// TestContendedHandOffAllocs pins the cost of blocking: two transactions
// hand an X lock on one resource back and forth, every request queued
// behind the other's hold and granted by its release, so the pooled waiter
// (its ready channel and deadlock-check timer) is all a blocked request may
// cost. Each transaction also holds an IS anchor for the whole run, so its
// lock list never empties and per-transaction bookkeeping stays out of the
// measurement.
func TestContendedHandOffAllocs(t *testing.T) {
	m := NewManager(Options{})
	defer m.Close()
	// Cancelled when the test returns, so a failed side never strands the
	// other one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for txn := TxnID(1); txn <= 2; txn++ {
		if err := m.AcquireCtx(ctx, txn, Resource(fmt.Sprintf("anchor-%d", txn)), IS); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AcquireCtx(ctx, 1, "pp", X); err != nil {
		t.Fatal(err)
	}
	// A holder releases only once the other's request has parked (its park
	// notification fired), so every request blocks. Each round starts and
	// ends with txn 1 holding "pp": txn 2 queues and txn 1 hands over, then
	// txn 1 queues and txn 2 hands back.
	parked1, parked2 := make(chan struct{}, 1), make(chan struct{}, 1)
	ctx1 := WithParkNotify(ctx, func() { parked1 <- struct{}{} })
	ctx2 := WithParkNotify(ctx, func() { parked2 <- struct{}{} })
	awaitPark := func(parked chan struct{}) error {
		select {
		case <-parked:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	handOff := func(rounds int) {
		errs := make(chan error, 2)
		go func() {
			for k := 0; k < rounds; k++ {
				if err := awaitPark(parked2); err != nil {
					errs <- err
					return
				}
				release(m, 1, "pp")
				if err := m.AcquireCtx(ctx1, 1, "pp", X); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		go func() {
			for k := 0; k < rounds; k++ {
				if err := m.AcquireCtx(ctx2, 2, "pp", X); err != nil {
					errs <- err
					return
				}
				if err := awaitPark(parked1); err != nil {
					errs <- err
					return
				}
				release(m, 2, "pp")
			}
			errs <- nil
		}()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}

	const rounds = 2000
	handOff(rounds / 4) // warm the waiter pool and both lock lists
	runtime.GC()
	var before, after runtime.MemStats
	waits := m.Stats().Waits
	runtime.ReadMemStats(&before)
	handOff(rounds)
	runtime.ReadMemStats(&after)
	ops := uint64(2 * rounds)
	if got := m.Stats().Waits - waits; got != ops {
		t.Fatalf("%d of %d hand-off requests blocked, want all", got, ops)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("blocked path allocs/op = %.2f", allocs)
	if !poolsRecycle() {
		return // not checked: sync.Pool is dropping objects (race detector on)
	}
	if allocs > 1.0 {
		t.Errorf("blocked path allocs/op = %.2f, want <= 1.0 (pooled waiters)", allocs)
	}
}

// poolsRecycle reports whether sync.Pool hands back what it was given: under
// the race detector it drops a quarter of all Puts on purpose, which turns
// every pooled object into an occasional allocation.
func poolsRecycle() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			return false
		}
	}
	return true
}

// TestManyHoldersRecycle puts 200 IS holders on one resource, drains it
// oldest first (every release removes the front slot), and re-populates the
// recycled entry, checking the summaries and visible holder set at each
// stage. Then, under wait-die and at several holder counts, an X request
// from a transaction older than every holder waits and younger ones die.
func TestManyHoldersRecycle(t *testing.T) {
	ctx := context.Background()
	m := newManager(Options{}, 1)
	const n = 200
	for txn := TxnID(1); txn <= n; txn++ {
		if err := m.AcquireCtx(ctx, txn, "obj", IS); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(holders(m, "obj")); got != n {
		t.Fatalf("holders = %d, want %d", got, n)
	}
	assertSummaries(t, m)

	for txn := TxnID(1); txn <= n; txn++ {
		m.ReleaseAll(txn)
		assertSummaries(t, m)
	}
	if m.LockCount() != 0 {
		t.Fatalf("locks leaked: %d", m.LockCount())
	}

	// The entry was recycled; a fresh population must start clean.
	for txn := TxnID(1); txn <= 3; txn++ {
		if err := m.AcquireCtx(ctx, txn, "obj", S); err != nil {
			t.Fatal(err)
		}
	}
	assertSummaries(t, m)
	if got := holders(m, "obj"); len(got) != 3 || got[2] != S {
		t.Fatalf("holders after recycle = %v", got)
	}
	for txn := TxnID(1); txn <= 3; txn++ {
		m.ReleaseAll(txn)
	}

	for _, k := range []int{1, 8, 9, 64, n} {
		m := NewManager(Options{Policy: PolicyWaitDie})
		const base = TxnID(1000) // holders base, base+2, …; base+1 is younger than one
		for i := 0; i < k; i++ {
			if err := m.AcquireCtx(ctx, base+TxnID(2*i), "hot", IS); err != nil {
				t.Fatal(err)
			}
		}
		for _, young := range []TxnID{base + 1, base + TxnID(2*k)} {
			if err := m.AcquireCtx(ctx, young, "hot", X); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("%d holders: X by younger txn %d = %v, want a wait-die death", k, young, err)
			}
		}
		res := acquireParked(t, m, 1, "hot", X)
		for i := 0; i < k; i++ {
			m.ReleaseAll(base + TxnID(2*i))
		}
		if err := <-res; err != nil {
			t.Fatalf("%d holders: X by the oldest txn: %v", k, err)
		}
		m.ReleaseAll(1)
		assertSummaries(t, m)
	}
}

// BenchmarkHotRootChurn is the shape rule 5 gives every root entry: n
// resident IS holders; each op ends the oldest holder's transaction and
// grants IS to a new one, younger than every resident.
func BenchmarkHotRootChurn(b *testing.B) {
	for _, n := range []int{4, 16, 64, 192} {
		b.Run(fmt.Sprintf("holders=%d", n), func(b *testing.B) {
			ctx := context.Background()
			m := NewManager(Options{})
			id := m.Intern("root")
			for txn := TxnID(1); txn <= TxnID(n); txn++ {
				if err := m.AcquireID(ctx, txn, id, IS); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oldest := TxnID(i + 1)
				m.ReleaseAll(oldest)
				if err := m.AcquireID(ctx, oldest+TxnID(n), id, IS); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEntrySummaryUnit drives a bare entry through targeted mutations —
// holder add/convert/remove/downgrade and queue enqueue/dequeue — validating
// checkSummary, and the lookups and decisions against brute-force answers
// over its 20 transactions after every step.
func TestEntrySummaryUnit(t *testing.T) {
	e := getEntry()
	modes := []Mode{IS, IX, S, SIX, X}
	rng := rand.New(rand.NewSource(41))
	live := map[TxnID]Mode{}
	for step := 0; step < 2000; step++ {
		txn := TxnID(1 + rng.Intn(20))
		switch op := rng.Intn(14); {
		case op < 5:
			mode := modes[rng.Intn(len(modes))]
			if cur, ok := live[txn]; ok {
				e.setMode(e.holder(txn), Sup(cur, mode))
				live[txn] = Sup(cur, mode)
			} else {
				h := e.addHolder(txn)
				e.setMode(h, mode)
				live[txn] = mode
			}
		case op < 8:
			if _, ok := live[txn]; ok {
				h, found := e.removeHolder(txn)
				if !found || h.mode != live[txn] {
					t.Fatalf("removeHolder(%d) = (%v,%v), want mode %v", txn, h.mode, found, live[txn])
				}
				delete(live, txn)
			}
		case op < 10:
			if _, ok := live[txn]; ok {
				down := []Mode{IS, IX, S}[rng.Intn(3)]
				e.setMode(e.holder(txn), down)
				live[txn] = down
			}
		case op < 12:
			w := getWaiter()
			_, w.convert = live[txn]
			w.txn, w.mode = txn, modes[rng.Intn(len(modes))]
			e.enqueue(w)
		default:
			if len(e.queue) > 0 {
				putWaiter(e.dequeueAt(rng.Intn(len(e.queue))))
			}
		}
		if err := e.checkSummary(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		for probe := TxnID(1); probe <= 20; probe++ {
			own, holds := live[probe]
			if h := e.holder(probe); (h != nil) != holds || h != nil && h.mode != own {
				t.Fatalf("step %d: holder(%d) = %v, want held=%v mode %v", step, probe, h, holds, own)
			}
			for _, target := range modes {
				compatible, die := true, false
				for t2, m2 := range live {
					if t2 != probe && !compat[target][m2] {
						compatible = false
						die = die || t2 < probe
					}
				}
				blocked := false
				for _, w := range e.queue {
					if w.txn != probe && !compat[target][w.mode] {
						blocked = true
						die = die || w.txn < probe
					}
				}
				if got := e.compatGranted(own, target); got != compatible {
					t.Fatalf("step %d: compatGranted(%v,%v) = %v, want %v (live=%v)", step, own, target, got, compatible, live)
				}
				if got, _ := e.blockedByQueue(probe, target); got != blocked {
					t.Fatalf("step %d: blockedByQueue(%d,%v) = %v, want %v", step, probe, target, got, blocked)
				}
				if got := e.mustDie(probe, target); got != die {
					t.Fatalf("step %d: mustDie(%d,%v) = %v, want %v (live=%v)", step, probe, target, got, die, live)
				}
			}
		}
	}
	for len(e.queue) > 0 {
		putWaiter(e.dequeueAt(0))
	}
	for txn := range live {
		e.removeHolder(txn)
		if err := e.checkSummary(); err != nil {
			t.Fatal(err)
		}
	}
	if !e.empty() {
		t.Fatalf("entry not empty after draining")
	}
	putEntry(e)
}

// TestWaiterPoolDrainsRacedOutcome: a waiter recycled after losing a
// timeout/grant race must not wake its next life spuriously.
func TestWaiterPoolDrainsRacedOutcome(t *testing.T) {
	w := getWaiter()
	w.ready <- nil // simulate a raced grant that the owner never consumed
	putWaiter(w)
	w2 := getWaiter()
	select {
	case err := <-w2.ready:
		t.Fatalf("recycled waiter carried stale outcome %v", err)
	default:
	}
	putWaiter(w2)
}
