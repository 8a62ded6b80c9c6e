package server

// The session's own tests, at the level of frames on a socket: what a
// parked request may and may not hold up, the max-inflight cap, teardown
// from every awkward point, reply coalescing, and the park notification
// the read-loop hand-off rests on. The client package's e2e suite covers
// the lock semantics end to end; this file pins the server's scheduling.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/txn"
	"colock/internal/wire"
)

func startServer(t *testing.T, opts Options) (*Server, *lock.Manager) {
	t.Helper()
	st := store.PaperDatabase()
	mgr := lock.NewManager(lock.Options{})
	proto := core.NewProtocol(mgr, st, core.NewNamer(st.Catalog(), false), core.Options{})
	srv := New(txn.NewManager(proto, st), opts)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, mgr
}

// rawClient speaks frames, one goroutine, no pipelining logic of its own:
// the test decides what is in flight.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	fw   *wire.FrameWriter
	fr   *wire.FrameReader
	next uint64
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return handshakeRaw(t, conn)
}

func handshakeRaw(t *testing.T, conn net.Conn) *rawClient {
	t.Helper()
	if err := wire.WriteHello(conn, wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if wl, err := wire.ReadWelcome(conn); err != nil || wl.Code != wire.WelcomeOK {
		t.Fatalf("welcome = %+v, %v", wl, err)
	}
	return &rawClient{t: t, conn: conn, fw: wire.NewFrameWriter(conn), fr: wire.NewFrameReader(conn)}
}

// request writes one request and returns its id without waiting for anything.
func request[P wire.Payload](c *rawClient, typ byte, p P) uint64 {
	c.t.Helper()
	c.next++
	if err := wire.Send(c.fw, typ, c.next, p, true); err != nil {
		c.t.Fatal(err)
	}
	return c.next
}

// expect reads the next frame, which must answer id with typ.
func (c *rawClient) expect(id uint64, typ byte) wire.Frame {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := c.fr.Next()
	if err != nil {
		c.t.Fatalf("waiting for %s to request %d: %v", wire.TypeName(typ), id, err)
	}
	if f.ReqID != id || f.Type != typ {
		detail := ""
		if p, err := wire.DecodeErrPayload(f.Payload); f.Type == wire.TErr && err == nil {
			detail = ": " + p.Message
		}
		c.t.Fatalf("got %s for request %d%s, want %s for request %d",
			wire.TypeName(f.Type), f.ReqID, detail, wire.TypeName(typ), id)
	}
	return f
}

func (c *rawClient) begin() uint64 {
	c.t.Helper()
	m, err := wire.DecodeTxnReply(c.expect(request(c, wire.TBegin, wire.BeginReq{}), wire.TTxn).Payload)
	if err != nil {
		c.t.Fatal(err)
	}
	return m.Txn
}

func lockReq(txnID uint64, mode lock.Mode, path ...string) wire.LockReq {
	return wire.LockReq{Txn: txnID, Node: wire.NodeRef{Level: wire.NodePath, Path: path}, Mode: mode}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// holdX opens a session whose transaction holds X on cells/c1 and returns
// it with the transaction id.
func holdX(t *testing.T, srv *Server) (*rawClient, uint64) {
	t.Helper()
	a := dialRaw(t, srv.Addr())
	ta := a.begin()
	a.expect(request(a, wire.TLockPath, lockReq(ta, lock.X, "cells", "c1")), wire.TOK)
	return a, ta
}

// TestParkedLockDelaysNothing: while a Lock is parked behind another
// session's X, the same connection still gets its Pings answered, runs a
// second transaction to commit, and keeps its lease — then the parked
// request is answered when the lock frees.
func TestParkedLockDelaysNothing(t *testing.T) {
	srv, mgr := startServer(t, Options{Lease: 100 * time.Millisecond})
	a, ta := holdX(t, srv)
	stop := make(chan struct{})
	defer close(stop)
	go func() { // a's keepalive; its replies are read below
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				_ = wire.Send(a.fw, wire.TPing, 1<<40, wire.NoPayload{}, true)
			}
		}
	}()

	b := dialRaw(t, srv.Addr())
	tb := b.begin()
	parked := request(b, wire.TLockPath, lockReq(tb, lock.X, "cells", "c1"))
	waitFor(t, func() bool { return mgr.WaitingTxns() == 1 }, "b's Lock to park")

	b.expect(request(b, wire.TPing, wire.NoPayload{}), wire.TPong)
	t2 := b.begin()
	b.expect(request(b, wire.TLockPath, lockReq(t2, lock.X, "cells", "c2")), wire.TOK)
	b.expect(request(b, wire.TCommit, wire.TxnReq{Txn: t2}), wire.TOK)
	// Three leases of nothing but Pings: every one answered, no expiry
	// notice, the first request still parked.
	for until := time.Now().Add(300 * time.Millisecond); time.Now().Before(until); time.Sleep(20 * time.Millisecond) {
		b.expect(request(b, wire.TPing, wire.NoPayload{}), wire.TPong)
	}
	if mgr.WaitingTxns() != 1 {
		t.Fatalf("waiting txns = %d, want b's Lock still parked", mgr.WaitingTxns())
	}

	// a's socket holds only Pongs until the Commit's OK.
	commit := request(a, wire.TCommit, wire.TxnReq{Txn: ta})
	for {
		_ = a.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := a.fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.ReqID == commit {
			break
		}
	}
	b.expect(parked, wire.TOK)
	b.expect(request(b, wire.TCommit, wire.TxnReq{Txn: tb}), wire.TOK)
}

// TestInflightCapCountsParked: with MaxInflight=1 and the one slot taken
// by a parked Lock, the next blocking request is refused busy, while the
// Commit of the lock's holder is still served (and unparks it).
func TestInflightCapCountsParked(t *testing.T) {
	srv, mgr := startServer(t, Options{MaxInflight: 1})
	c := dialRaw(t, srv.Addr())
	ta := c.begin()
	c.expect(request(c, wire.TLockPath, lockReq(ta, lock.X, "cells", "c1")), wire.TOK)
	tb := c.begin()
	parked := request(c, wire.TLockPath, lockReq(tb, lock.X, "cells", "c1"))
	waitFor(t, func() bool { return mgr.WaitingTxns() == 1 }, "tb's Lock to park")

	f := c.expect(request(c, wire.TBegin, wire.BeginReq{}), wire.TErr)
	if p, err := wire.DecodeErrPayload(f.Payload); err != nil || p.Cause != wire.CauseBusy || !p.Retryable {
		t.Fatalf("refusal = %+v, %v; want retryable busy", p, err)
	}
	c.expect(request(c, wire.TPing, wire.NoPayload{}), wire.TPong)

	commit := request(c, wire.TCommit, wire.TxnReq{Txn: ta})
	// Two goroutines answer: the read loop the Commit, the woken waiter its
	// Lock — in either order.
	for seen := 0; seen < 2; seen++ {
		_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := c.fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.TOK || (f.ReqID != commit && f.ReqID != parked) {
			t.Fatalf("got %s for request %d", wire.TypeName(f.Type), f.ReqID)
		}
	}
	c.expect(request(c, wire.TBegin, wire.BeginReq{}), wire.TTxn) // the slot is free again
}

// TestAbortBehindParkedLock: an Abort that arrives while its transaction's
// Lock is parked (the client abandoned the wait) waits for the Lock to
// resolve without blocking anything else on the connection.
func TestAbortBehindParkedLock(t *testing.T) {
	srv, mgr := startServer(t, Options{})
	a, ta := holdX(t, srv)
	b := dialRaw(t, srv.Addr())
	tb := b.begin()
	parked := request(b, wire.TLockPath, lockReq(tb, lock.X, "cells", "c1"))
	waitFor(t, func() bool { return mgr.WaitingTxns() == 1 }, "b's Lock to park")

	abort := request(b, wire.TAbort, wire.TxnReq{Txn: tb})
	b.expect(request(b, wire.TPing, wire.NoPayload{}), wire.TPong)
	t2 := b.begin()
	b.expect(request(b, wire.TCommit, wire.TxnReq{Txn: t2}), wire.TOK)

	a.expect(request(a, wire.TCommit, wire.TxnReq{Txn: ta}), wire.TOK)
	b.expect(parked, wire.TOK) // the Lock resolves first,
	b.expect(abort, wire.TOK)  // then the Abort that queued behind it
	waitFor(t, func() bool { return mgr.LockCount() == 0 }, "the abort to discard the grant")
}

// TestSocketCutTeardown cuts the connection mid-frame, right behind a
// Commit, and while a request is parked: every time the session goes away
// and takes its locks with it.
func TestSocketCutTeardown(t *testing.T) {
	srv, mgr := startServer(t, Options{})
	gone := func(what string) {
		t.Helper()
		waitFor(t, func() bool { return srv.SessionCount() == 0 }, what+": session teardown")
		if n := mgr.LockCount(); n != 0 { // a session leaves SessionCount only finalized
			t.Fatalf("%s: %d locks left behind", what, n)
		}
	}

	c, tc := holdX(t, srv)
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, wire.TLockPath, 99, lockReq(tc, lock.X, "cells", "c2").Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	gone("mid-frame")

	c, tc = holdX(t, srv)
	request(c, wire.TCommit, wire.TxnReq{Txn: tc})
	c.conn.Close()
	gone("mid-Commit")

	a, _ := holdX(t, srv)
	b := dialRaw(t, srv.Addr())
	request(b, wire.TLockPath, lockReq(b.begin(), lock.X, "cells", "c1"))
	waitFor(t, func() bool { return mgr.WaitingTxns() == 1 }, "b's Lock to park")
	b.conn.Close()
	waitFor(t, func() bool { return srv.SessionCount() == 1 && mgr.WaitingTxns() == 0 }, "parked session teardown")
	a.conn.Close()
	gone("while parked")
}

// countConn counts the Write calls the server makes on a connection.
type countConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPipelinedBurstSharesWrites: N requests arriving in one burst are
// answered by N replies in at most two writes (one, unless TCP split the
// burst) — replies are flushed when the read buffer runs dry, not per frame.
func TestPipelinedBurstSharesWrites(t *testing.T) {
	srv, _ := startServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	counted := make(chan *countConn, 1)
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		cc := &countConn{Conn: conn}
		counted <- cc
		srv.handleConn(cc)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := handshakeRaw(t, conn)
	cc := <-counted
	tc := c.begin()

	const n = 32
	var burst bytes.Buffer
	for i := 1; i <= n; i++ {
		typ, payload := wire.TPing, []byte(nil)
		if i%2 == 0 {
			typ, payload = wire.TLockPath, lockReq(tc, lock.S, "cells", "c1", "robots", "r1").Encode()
		}
		if err := wire.WriteFrame(&burst, typ, 1000+uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	before := cc.writes.Load()
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		typ := wire.TPong
		if i%2 == 0 {
			typ = wire.TOK
		}
		c.expect(1000+uint64(i), typ)
	}
	if w := cc.writes.Load() - before; w > 2 {
		t.Errorf("%d replies took %d writes, want <= 2", n, w)
	}
}

// TestParkNotifyFiresOncePerPark pins the lock manager's side of the
// hand-off: the notification runs exactly once for a request that sleeps
// — on its own goroutine, before it sleeps — once for a Begin stalled at
// the admission gate, and never for a request granted without waiting.
func TestParkNotifyFiresOncePerPark(t *testing.T) {
	mgr := lock.NewManager(lock.Options{})
	var fired atomic.Int32
	ctx := lock.WithParkNotify(context.Background(), func() {
		if mgr.WaitingTxns() != 1 {
			t.Error("park notification ran before the request was queued")
		}
		fired.Add(1)
	})
	if err := mgr.AcquireCtx(ctx, 1, "db/r", lock.X); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AcquireBatch(ctx, 1, []lock.BatchReq{{Resource: "db", Mode: lock.IX}, {Resource: "db/q", Mode: lock.X}}); err != nil {
		t.Fatal(err)
	}
	if n := fired.Load(); n != 0 {
		t.Fatalf("notification fired %d times on uncontended acquires", n)
	}
	got := make(chan error, 1)
	go func() { got <- mgr.AcquireCtx(ctx, 2, "db/r", lock.S) }()
	waitFor(t, func() bool { return fired.Load() == 1 }, "the notification")
	mgr.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if n := fired.Load(); n != 1 {
		t.Fatalf("notification fired %d times for one parked request", n)
	}

	// The admission stall: one waiter saturates the gate, the next Admit
	// stalls (notifying) and is shed; with no delay allowed it is shed
	// without stalling (not notifying).
	go func() { got <- mgr.AcquireCtx(context.Background(), 3, "db/r", lock.X) }()
	waitFor(t, func() bool { return mgr.WaitingTxns() == 1 }, "txn 3 to queue")
	for i, delay := range []time.Duration{5 * time.Millisecond, 0} {
		mgr.ConfigureAdmission(lock.AdmissionConfig{MaxWaiters: 1, MaxDelay: delay})
		if err := mgr.Admit(ctx, 4); !errors.Is(err, lock.ErrShed) {
			t.Fatalf("Admit = %v, want shed", err)
		}
		if n := fired.Load(); n != 2 {
			t.Fatalf("round %d: notification count = %d, want 2", i, n)
		}
	}
	mgr.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}
