package client_test

// End-to-end tests over a real TCP socket: a colockd-equivalent server in
// this process, clients dialing loopback. They prove the acceptance claim
// of DESIGN.md §16 — a remote client observes the same lock semantics as
// an in-process caller: identical causes for deadlock / wait-die / timeout
// / shed, blocker sets intact, lease expiry freeing every lock, drain
// refusing new work while in-flight transactions finish.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"colock/client"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/resilience"
	"colock/internal/server"
	"colock/internal/store"
	"colock/internal/txn"
	"colock/internal/wire"
)

// startServer brings up a wire server on a loopback port and returns it
// with its lock manager (for lock-table assertions).
func startServer(t *testing.T, policy lock.Policy, opts server.Options) (*server.Server, *lock.Manager) {
	t.Helper()
	st := store.PaperDatabase()
	nm := core.NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{Policy: policy})
	proto := core.NewProtocol(mgr, st, nm, core.Options{})
	srv := server.New(txn.NewManager(proto, st), opts)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, mgr
}

func dial(t *testing.T, srv *server.Server, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConflictAcrossSessions: two clients contend for X on the same data
// node; the second blocks until the first commits, exactly like two local
// transactions on one hierarchy.
func TestConflictAcrossSessions(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	a := dial(t, srv, client.Options{})
	b := dial(t, srv, client.Options{})
	ctx := context.Background()

	node := core.DataNode(store.P("cells", "c1"))
	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, node, lock.X); err != nil {
		t.Fatal(err)
	}

	tb, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- tb.Lock(ctx, node, lock.X) }()

	// b must be parked behind a's lock, not granted and not failed.
	waitFor(t, 2*time.Second, func() bool { return mgr.WaitingTxns() == 1 }, "b to queue behind a")
	select {
	case err := <-got:
		t.Fatalf("b acquired while a held X: %v", err)
	default:
	}

	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("b after a's commit: %v", err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return mgr.LockCount() == 0 }, "lock table to drain")
}

// TestDeadlockVictimOverWire: a classic ABBA deadlock between two remote
// sessions. The victim's error must carry the exact sentinel and the
// blocker's transaction id across the wire.
func TestDeadlockVictimOverWire(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyDetect, server.Options{})
	a := dial(t, srv, client.Options{})
	b := dial(t, srv, client.Options{})
	ctx := context.Background()

	n1 := core.DataNode(store.P("cells", "c1"))
	n2 := core.DataNode(store.P("cells", "c2"))

	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, n1, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := tb.Lock(ctx, n2, lock.X); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	go func() { errs <- ta.Lock(ctx, n2, lock.X) }()
	go func() { errs <- tb.Lock(ctx, n1, lock.X) }()

	var victim error
	select {
	case victim = <-errs:
	case <-time.After(10 * time.Second):
		t.Fatal("no deadlock victim surfaced")
	}
	if !errors.Is(victim, lock.ErrDeadlockVictim) {
		t.Fatalf("victim error = %v, want ErrDeadlockVictim", victim)
	}
	blockers := resilience.Blockers(victim)
	if len(blockers) == 0 {
		t.Fatal("victim error lost its blockers crossing the wire")
	}
	want := map[lock.TxnID]bool{ta.ID(): true, tb.ID(): true}
	for _, bl := range blockers {
		if !want[bl] {
			t.Errorf("blocker %d is neither transaction (%d, %d)", bl, ta.ID(), tb.ID())
		}
	}
	cause, retry := resilience.Classify(victim)
	if cause != resilience.CauseDeadlock || !retry {
		t.Errorf("classify = (%v,%v), want (deadlock,true)", cause, retry)
	}

	// Abort the victim first: the survivor's acquire is still parked on its
	// transaction until the victim's locks are released.
	var le *lock.LockError
	if !errors.As(victim, &le) {
		t.Fatalf("victim error is not a *lock.LockError: %v", victim)
	}
	vic, sur := ta, tb
	if le.Txn == tb.ID() {
		vic, sur = tb, ta
	}
	vic.Abort()
	if err := <-errs; err != nil {
		t.Errorf("survivor's acquire after victim abort: %v", err)
	}
	sur.Abort()
}

// TestWaitDieOverWire: under the wait-die policy a younger remote
// transaction requesting a lock held by an older one dies with ErrWaitDie.
func TestWaitDieOverWire(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyWaitDie, server.Options{})
	a := dial(t, srv, client.Options{})
	b := dial(t, srv, client.Options{})
	ctx := context.Background()

	node := core.DataNode(store.P("cells", "c1"))
	older, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	younger, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if older.ID() >= younger.ID() {
		t.Fatalf("ids not ordered: %d, %d", older.ID(), younger.ID())
	}
	if err := older.Lock(ctx, node, lock.X); err != nil {
		t.Fatal(err)
	}
	err = younger.Lock(ctx, node, lock.X)
	if !errors.Is(err, lock.ErrWaitDie) {
		t.Fatalf("younger's error = %v, want ErrWaitDie", err)
	}
	if cause, retry := resilience.Classify(err); cause != resilience.CauseWaitDie || !retry {
		t.Errorf("classify = (%v,%v)", cause, retry)
	}
	older.Abort()
	younger.Abort()
}

// TestTimeoutOverWire: WithTimeout travels in the request and the server
// withdraws the acquisition, failing with the timeout sentinel.
func TestTimeoutOverWire(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyDetect, server.Options{})
	a := dial(t, srv, client.Options{})
	b := dial(t, srv, client.Options{})
	ctx := context.Background()

	node := core.DataNode(store.P("cells", "c1"))
	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, node, lock.X); err != nil {
		t.Fatal(err)
	}
	tb, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	err = tb.Lock(ctx, node, lock.X, client.WithTimeout(30*time.Millisecond))
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	if cause, retry := resilience.Classify(err); cause != resilience.CauseTimeout || !retry {
		t.Errorf("classify = (%v,%v)", cause, retry)
	}
	ta.Abort()
	tb.Abort()
}

// TestShedOverWire: the admission gate installed on the server's lock
// manager sheds a Begin while the waits-for graph is saturated, and the
// refusal classifies as a retryable shed on the client.
func TestShedOverWire(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	mgr.ConfigureAdmission(lock.AdmissionConfig{MaxWaiters: 1, Mode: lock.AdmitShed})
	a := dial(t, srv, client.Options{})
	b := dial(t, srv, client.Options{})
	c := dial(t, srv, client.Options{})
	ctx := context.Background()

	node := core.DataNode(store.P("cells", "c1"))
	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, node, lock.X); err != nil {
		t.Fatal(err)
	}
	tb, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- tb.Lock(ctx, node, lock.X) }()
	waitFor(t, 2*time.Second, func() bool { return mgr.WaitingTxns() == 1 }, "b to saturate the gate")

	if _, err := c.Begin(ctx); !errors.Is(err, lock.ErrShed) {
		t.Fatalf("Begin under saturation = %v, want ErrShed", err)
	} else if _, retry := resilience.Classify(err); !retry {
		t.Error("shed Begin not retryable")
	}

	ta.Abort()
	if err := <-parked; err != nil {
		t.Fatalf("b after a aborted: %v", err)
	}
	tb.Abort()
}

// TestLeaseExpiryFreesLocks: a client that stops pinging has its session
// expired, its transactions aborted server-side and every lock released;
// the client's next call reports the expiry.
func TestLeaseExpiryFreesLocks(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{Lease: 80 * time.Millisecond})
	c, err := client.Dial(srv.Addr(), client.Options{NoKeepalive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock(ctx, core.DataNode(store.P("cells", "c1")), lock.X); err != nil {
		t.Fatal(err)
	}
	if mgr.LockCount() == 0 {
		t.Fatal("no locks held before expiry")
	}

	// No frames flow; the lease loop must expire the session and free the
	// locks without any client cooperation.
	waitFor(t, 5*time.Second, func() bool { return mgr.LockCount() == 0 }, "lease expiry to free locks")
	waitFor(t, 5*time.Second, func() bool { return srv.SessionCount() == 0 }, "session teardown")
	waitFor(t, 5*time.Second, func() bool { return c.Err() != nil }, "client to observe expiry")
	if err := c.Err(); !errors.Is(err, wire.ErrSessionExpired) {
		t.Errorf("client error = %v, want session-expired", err)
	}
	if err := tx.Lock(ctx, core.DataNode(store.P("cells", "c2")), lock.S); err == nil {
		t.Error("lock on expired session succeeded")
	}
}

// TestKeepaliveSurvivesLease: the automatic keepalive outlives several
// lease intervals with no other traffic.
func TestKeepaliveSurvivesLease(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyDetect, server.Options{Lease: 120 * time.Millisecond})
	c := dial(t, srv, client.Options{})
	time.Sleep(500 * time.Millisecond) // > 4 leases
	if err := c.Err(); err != nil {
		t.Fatalf("session died despite keepalive: %v", err)
	}
	if _, err := c.Begin(context.Background()); err != nil {
		t.Fatalf("Begin after idling: %v", err)
	}
}

// TestDrainRefusesNewWhileInflightFinish: Drain refuses new sessions and
// new transactions retryably, waits for the in-flight transaction, then
// completes.
func TestDrainRefusesNewWhileInflightFinish(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	a := dial(t, srv, client.Options{})
	ctx := context.Background()

	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, core.DataNode(store.P("cells", "c1")), lock.X); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	go func() { drained <- srv.Drain(dctx) }()
	waitFor(t, 2*time.Second, srv.Draining, "server to enter draining")

	// New sessions are refused at the handshake.
	if _, err := client.Dial(srv.Addr(), client.Options{}); !errors.Is(err, lock.ErrShed) {
		t.Errorf("Dial while draining = %v, want shed-classified refusal", err)
	}
	// New transactions on live sessions are refused retryably.
	if _, err := a.Begin(ctx); !errors.Is(err, lock.ErrShed) {
		t.Errorf("Begin while draining = %v, want shed-classified refusal", err)
	}
	// The in-flight transaction still commits.
	if err := ta.Commit(); err != nil {
		t.Fatalf("commit while draining: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if mgr.LockCount() != 0 {
		t.Errorf("locks after drain: %d", mgr.LockCount())
	}
}

// TestAbruptDisconnectFreesLocks: cutting the connection without commit
// aborts the session's transactions (workstation crash).
func TestAbruptDisconnectFreesLocks(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	c := dial(t, srv, client.Options{})
	ctx := context.Background()
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock(ctx, core.DataNode(store.P("cells", "c1")), lock.X); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, 5*time.Second, func() bool { return mgr.LockCount() == 0 }, "disconnect to free locks")
}

// TestDeEscalateAndUnlockOverWire: the Downgrade and Release frames reach
// DeEscalate/Unlock — after de-escalating a relation X to one kept tuple,
// another session can lock a sibling tuple.
func TestDeEscalateAndUnlockOverWire(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyDetect, server.Options{})
	a := dial(t, srv, client.Options{})
	b := dial(t, srv, client.Options{})
	ctx := context.Background()

	rel := core.DataNode(store.P("cells"))
	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, rel, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := ta.DeEscalate(rel, []store.Path{store.P("cells", "c1")}); err != nil {
		t.Fatal(err)
	}

	tb, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// c2 is free after the de-escalation; c1 is still held.
	if err := tb.Lock(ctx, core.DataNode(store.P("cells", "c2")), lock.X,
		client.WithTimeout(2*time.Second)); err != nil {
		t.Fatalf("sibling lock after de-escalation: %v", err)
	}
	err = tb.Lock(ctx, core.DataNode(store.P("cells", "c1")), lock.X, client.WithTimeout(30*time.Millisecond))
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("kept tuple unexpectedly free: %v", err)
	}

	// Early single release (rule 5) frees the kept tuple. ta still holds the
	// locks the de-escalation propagated into referenced common data
	// (effectors), so the probe uses NOFOLLOW — which also proves the
	// NoFollow flag crosses the wire.
	if err := ta.Unlock(core.DataNode(store.P("cells", "c1"))); err != nil {
		t.Fatal(err)
	}
	if err := tb.Lock(ctx, core.DataNode(store.P("cells", "c1")), lock.X,
		client.WithTimeout(2*time.Second), client.WithNoFollow()); err != nil {
		t.Fatalf("kept tuple after Unlock: %v", err)
	}
	ta.Abort()
	tb.Abort()
}

// TestRunWithRetryOverWire: two clients hammer an ABBA pattern through
// RunWithRetry; server-reported victims are retried and both eventually
// commit.
func TestRunWithRetryOverWire(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	ctx := context.Background()
	n1 := core.DataNode(store.P("cells", "c1"))
	n2 := core.DataNode(store.P("cells", "c2"))

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		c := dial(t, srv, client.Options{})
		first, second := n1, n2
		if i == 1 {
			first, second = n2, n1
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.RunWithRetry(ctx, func(tx *client.Txn) error {
				if err := tx.Lock(ctx, first, lock.X); err != nil {
					return err
				}
				return tx.Lock(ctx, second, lock.X)
			}, client.WithMaxAttempts(0), client.WithAttemptTimeout(5*time.Second))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if mgr.LockCount() != 0 {
		t.Errorf("locks after retries: %d", mgr.LockCount())
	}
}

// TestPipelinedConcurrentTxns: many goroutines share one client, each
// driving its own transaction over the single pipelined connection.
func TestPipelinedConcurrentTxns(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	c := dial(t, srv, client.Options{})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.RunWithRetry(ctx, func(tx *client.Txn) error {
				return tx.Lock(ctx, core.DataNode(store.P("cells", "c1")), lock.S)
			}, client.WithAttemptTimeout(5*time.Second))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	if mgr.LockCount() != 0 {
		t.Errorf("locks left behind: %d", mgr.LockCount())
	}
}

// TestFinishBypassesInflightCap: with every inflight slot held by a
// blocked acquisition, a pipelined Commit must still reach the server
// (finish frames are exempt from the max-inflight cap) — otherwise the
// committing transaction leaks and the blocked one waits forever with no
// deadlock cycle to detect.
func TestFinishBypassesInflightCap(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{MaxInflight: 1})
	c := dial(t, srv, client.Options{})
	ctx := context.Background()

	node := core.DataNode(store.P("cells", "c1"))
	ta, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, node, lock.X); err != nil {
		t.Fatal(err)
	}
	tb, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- tb.Lock(ctx, node, lock.X) }()
	waitFor(t, 2*time.Second, func() bool { return mgr.WaitingTxns() == 1 }, "b to park on the single slot")

	// The one slot is held by b's parked acquire; a's Commit must not be
	// refused busy and must unblock b.
	if err := ta.Commit(); err != nil {
		t.Fatalf("commit with inflight cap saturated: %v", err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("b after a's commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b still parked after a committed — finish frame never reached the server")
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return mgr.LockCount() == 0 }, "lock table to drain")
}

// TestSmallInflightPipelineNoDeadlock hammers a tiny inflight cap with
// conflicting pipelined transactions on one connection: worker-pool
// growth must keep pace with enqueued frames (the idle-claim is atomic),
// and busy refusals must stay retryable, so every transaction finishes.
func TestSmallInflightPipelineNoDeadlock(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{MaxInflight: 2})
	c := dial(t, srv, client.Options{})
	ctx := context.Background()
	n1 := core.DataNode(store.P("cells", "c1"))
	n2 := core.DataNode(store.P("cells", "c2"))

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		first, second := n1, n2
		if i%2 == 1 {
			first, second = n2, n1
		}
		wg.Add(1)
		go func(i int, first, second core.Node) {
			defer wg.Done()
			errs[i] = c.RunWithRetry(ctx, func(tx *client.Txn) error {
				if err := tx.Lock(ctx, first, lock.X); err != nil {
					return err
				}
				return tx.Lock(ctx, second, lock.X)
			}, client.WithMaxAttempts(0), client.WithAttemptTimeout(5*time.Second))
		}(i, first, second)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	if mgr.LockCount() != 0 {
		t.Errorf("locks left behind: %d", mgr.LockCount())
	}
}

// TestLockCtxCancel: canceling the ctx of a parked Lock returns promptly
// client-side even though the ctx carries no deadline. The server may
// still grant the abandoned acquisition; aborting the transaction then
// discards it, per the documented contract.
func TestLockCtxCancel(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	a := dial(t, srv, client.Options{})
	b := dial(t, srv, client.Options{})
	ctx := context.Background()

	node := core.DataNode(store.P("cells", "c1"))
	ta, err := a.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Lock(ctx, node, lock.X); err != nil {
		t.Fatal(err)
	}
	tb, err := b.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	got := make(chan error, 1)
	go func() { got <- tb.Lock(cctx, node, lock.X) }()
	waitFor(t, 2*time.Second, func() bool { return mgr.WaitingTxns() == 1 }, "b to park behind a")

	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled lock returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Lock did not return after ctx cancellation")
	}

	// Commit a first: b's abandoned acquire is still parked server-side
	// and b's per-txn mutex is held until it resolves.
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	tb.Abort()
	waitFor(t, 5*time.Second, func() bool { return mgr.LockCount() == 0 }, "abort to discard the abandoned grant")
}

// TestTinyLeaseClamped: a degenerate lease must not panic the lease
// poller's ticker; New clamps it and the clamped value is what the
// handshake announces.
func TestTinyLeaseClamped(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyDetect, server.Options{Lease: 1}) // 1ns
	c := dial(t, srv, client.Options{})
	if c.Lease() < 20*time.Millisecond {
		t.Fatalf("announced lease %v, want the clamped minimum", c.Lease())
	}
	// The keepalive runs off the clamped lease; the session must survive
	// several intervals.
	time.Sleep(100 * time.Millisecond)
	if _, err := c.Begin(context.Background()); err != nil {
		t.Fatalf("Begin after idling on a clamped lease: %v", err)
	}
}

// TestMaxSessionsRefusal: the session cap refuses the surplus dial with a
// shed-classified error.
func TestMaxSessionsRefusal(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyDetect, server.Options{MaxSessions: 1})
	_ = dial(t, srv, client.Options{})
	if _, err := client.Dial(srv.Addr(), client.Options{}); !errors.Is(err, lock.ErrShed) {
		t.Fatalf("surplus dial = %v, want shed-classified refusal", err)
	}
}
