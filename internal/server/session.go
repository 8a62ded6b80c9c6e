package server

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/txn"
	"colock/internal/wire"
)

// session is one connection's server-side state: the transactions it has
// begun, its lease bookkeeping, and both halves of the framing.
//
// Requests run to completion on the goroutine that read them: the read
// loop decodes a frame, executes it against the transaction manager and
// buffers the reply, and flushes once the read buffer holds no further
// request — an uncontended round trip never leaves that one goroutine,
// and a pipelined burst is answered with one write. Exactly one goroutine
// holds the read loop at a time. Only a request that is about to sleep in
// the lock manager gives the loop up: the manager's park notification
// (lock.WithParkNotify) starts a fresh reader before the waiter sleeps,
// so Pings, lease refresh, other transactions' frames and connection
// teardown are served while it waits, and the parked goroutine answers
// its own request when it wakes. Requests that cannot carry the
// notification (Downgrade, Release) or whose transaction is busy with an
// earlier, parked request are handed to a goroutine of their own. The
// max-inflight cap counts the parked and handed-off requests; Commit and
// Abort are exempt from it (see dispatch). Operations on one transaction
// serialize on its per-transaction mutex because a txn.Txn is a single
// thread of execution.
type session struct {
	s    *Server
	id   uint64
	conn net.Conn
	fw   *wire.FrameWriter

	// fr and names belong to whichever goroutine holds the read loop.
	fr    *wire.FrameReader
	names wire.Interner

	// ctx is canceled when the session ends (client gone, lease missed,
	// server shutdown); every blocking acquisition runs under it, so
	// teardown withdraws parked waiters instead of orphaning them.
	ctx    context.Context
	cancel context.CancelFunc

	// frames counts frames read. The lease poller compares it between
	// ticks — any frame refreshes the lease — so the read loop reads no
	// clock; polled and polledAt are the poller's, guarded by Server.mu.
	frames   atomic.Uint64
	polled   uint64
	polledAt time.Time

	wclosed atomic.Bool

	// inflight counts requests parked or handed off, against the
	// max-inflight cap (the read loop executes one more inline); a request
	// leaves it as its reply is written. reqWG counts the same requests
	// plus handed-off finishes until they return, for finalize; only the
	// goroutine holding the read loop adds to it.
	inflight atomic.Int32
	reqWG    sync.WaitGroup

	mu      sync.Mutex
	txns    map[uint64]*sessTxn
	expired bool

	finalizeOnce sync.Once
}

// sessTxn pairs a transaction with the mutex that serializes its wire
// operations.
type sessTxn struct {
	mu sync.Mutex
	t  *txn.Txn
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{
		s:        s,
		id:       id,
		conn:     conn,
		fw:       wire.NewFrameWriter(conn),
		fr:       wire.NewFrameReader(conn),
		ctx:      ctx,
		cancel:   cancel,
		polledAt: time.Now(),
		txns:     make(map[uint64]*sessTxn),
	}
}

func (sess *session) txnCount() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return len(sess.txns)
}

// reader is one goroutine's share of the session: the context its
// requests run under, its decode scratch, and whether it holds the read
// loop. Handed-off requests run under a reader that never held it.
type reader struct {
	sess *session
	// ctx is the session's plus, for a goroutine on the read loop, the
	// park notification that takes the loop away from it.
	ctx context.Context
	// path is LockReq scratch: the decoded path of the request in hand.
	// It stays behind with a parked request; the next reader brings its own.
	path   []string
	leader bool
	capped bool // holds a max-inflight slot until its reply is written
}

// serve is the read loop. The connection's goroutine enters it first; park
// starts a successor. The reader that meets the read error ends the
// session; one that parked finishes its request and leaves.
func (sess *session) serve() {
	rd := &reader{sess: sess, leader: true}
	rd.ctx = lock.WithParkNotify(sess.ctx, rd.park)
	for rd.leader {
		// Replies wait in the write buffer while requests wait in the read
		// buffer: one syscall drains every frame a pipelining client has
		// queued, one answers them.
		if !sess.fr.Buffered() {
			sess.flush()
		}
		f, err := sess.fr.Next()
		if err != nil {
			sess.s.dropSession(sess)
			return
		}
		sess.s.framesRead.Add(1)
		sess.frames.Add(1)
		rd.dispatch(f)
	}
	sess.reqWG.Done()
}

// park is the reader's park notification: the request it is executing is
// about to sleep in the lock manager, so the read loop moves to a fresh
// goroutine — which starts by flushing the replies buffered so far — and
// this one becomes a request in flight. A request that parks a second time
// has no loop left to give up.
func (rd *reader) park() {
	if !rd.leader {
		return
	}
	rd.leader, rd.capped = false, true
	sess := rd.sess
	sess.inflight.Add(1)
	sess.reqWG.Add(1)
	sess.s.wg.Add(1)
	go func() {
		defer sess.s.wg.Done()
		sess.serve()
	}()
}

// handoff runs fn off the read loop, as a request in flight: it has no ctx
// to carry the park notification, or its transaction is busy. capped says
// whether it counts against max-inflight (finishes do not).
func (sess *session) handoff(capped bool, fn func(*reader)) {
	if capped {
		sess.inflight.Add(1)
	}
	sess.reqWG.Add(1)
	sess.s.wg.Add(1)
	go func() {
		defer sess.s.wg.Done()
		fn(&reader{sess: sess, ctx: sess.ctx, capped: capped})
		sess.reqWG.Done()
	}()
}

// send writes one reply frame; writes after close are dropped (the peer is
// gone and teardown owns the conn). The read loop leaves its replies in
// the buffer (serve flushes); everyone else flushes. A write error is
// session-fatal, from whichever goroutine hits it: the connection is cut
// so the read loop stops accepting requests whose outcomes the client
// could never hear, and teardown aborts the session's transactions
// promptly instead of waiting for the peer to notice the broken half.
func send[P wire.Payload](rd *reader, reqID uint64, typ byte, p P) {
	sess := rd.sess
	if rd.capped {
		// Before the reply: a client that reacts to it finds the slot free.
		rd.capped = false
		sess.inflight.Add(-1)
	}
	if sess.wclosed.Load() {
		return
	}
	if err := wire.Send(sess.fw, typ, reqID, p, !rd.leader); err != nil {
		sess.close()
		return
	}
	sess.s.framesWritten.Add(1)
}

func (sess *session) flush() {
	if err := sess.fw.Flush(); err != nil {
		sess.close()
	}
}

func (rd *reader) replyErr(reqID uint64, p wire.ErrPayload) {
	rd.sess.s.errorReplies.Add(1)
	send(rd, reqID, wire.TErr, p)
}

// replyOutcome converts a handler result into TOK or TErr.
func (rd *reader) replyOutcome(reqID uint64, err error) {
	if err == nil {
		send(rd, reqID, wire.TOK, wire.NoPayload{})
		return
	}
	if errors.Is(err, txn.ErrNotActive) {
		// Map the txn layer's sentinel onto the wire vocabulary.
		rd.replyErr(reqID, wire.ErrPayload{
			Cause: wire.CauseNotActive, Message: err.Error(),
		})
		return
	}
	rd.replyErr(reqID, wire.PayloadOf(err))
}

func (rd *reader) replyNotActive(reqID, txnID uint64) {
	rd.replyErr(reqID, wire.ErrPayload{
		Cause: wire.CauseNotActive, Txn: txnID,
		Message: "transaction not active in this session",
	})
}

// dispatch decodes and executes one request on the read loop. Pings and
// finishes are never refused: the keepalive must not depend on the cap,
// and a Commit or Abort releases locks other sessions (or other
// transactions pipelined on this one) are waiting on, so refusing it busy
// while every slot is held by a parked acquisition would leave the
// transaction — and its locks — stranded. Everything else is refused busy
// once max-inflight requests are parked or handed off. The payload is
// borrowed from the read buffer: whatever outlives this call is decoded
// into memory of its own first. A grammar violation is fatal to the
// session: the reply says so and the connection closes (framing state
// after a bad payload is untrustworthy).
func (rd *reader) dispatch(f wire.Frame) {
	sess := rd.sess
	var err error
	switch f.Type {
	case wire.TPing:
		send(rd, f.ReqID, wire.TPong, wire.Pong{Lease: sess.s.opts.Lease})
		return
	case wire.TCommit, wire.TAbort:
		var m wire.TxnReq
		if m, err = wire.DecodeTxnReq(f.Payload); err == nil {
			rd.handleFinish(f.ReqID, m.Txn, f.Type == wire.TCommit)
		}
	case wire.TBegin, wire.TLock, wire.TLockPath, wire.TDowngrade, wire.TRelease:
		if int(sess.inflight.Load()) >= sess.s.opts.MaxInflight {
			sess.s.busyRefusals.Add(1)
			rd.replyErr(f.ReqID, wire.ErrPayload{
				Cause: wire.CauseBusy, Retryable: true,
				Message: "session exceeded max-inflight requests",
			})
			return
		}
		switch f.Type {
		case wire.TBegin:
			var m wire.BeginReq
			if m, err = wire.DecodeBeginReq(f.Payload); err == nil {
				rd.handleBegin(f.ReqID, m)
			}
		case wire.TDowngrade:
			var m wire.DowngradeReq
			if m, err = wire.DecodeDowngradeReq(f.Payload); err == nil {
				sess.handoff(true, func(rd *reader) { rd.handleDowngrade(f.ReqID, m) })
			}
		case wire.TRelease:
			var m wire.ReleaseReq
			if m, err = wire.DecodeReleaseReq(f.Payload); err == nil {
				sess.handoff(true, func(rd *reader) { rd.handleRelease(f.ReqID, m) })
			}
		default:
			var m wire.LockReq
			if m, err = sess.names.DecodeLockReq(f.Payload, rd.path); err == nil {
				rd.path = m.Node.Path
				rd.handleLock(f.ReqID, m)
			}
		}
	default:
		err = errors.New("unknown request type " + wire.TypeName(f.Type))
	}
	if err != nil {
		rd.replyErr(f.ReqID, wire.ErrPayload{Cause: wire.CauseProtocol, Message: err.Error()})
		sess.flush()
		_ = sess.conn.Close() // fails the read loop; teardown aborts the txns
	}
}

func (rd *reader) handleBegin(reqID uint64, m wire.BeginReq) {
	sess := rd.sess
	if sess.s.Draining() {
		rd.replyErr(reqID, wire.ErrPayload{
			Cause: wire.CauseDraining, Retryable: true,
			Message: "server draining: no new transactions",
		})
		return
	}
	var t *txn.Txn
	if m.Long {
		// Long transactions bypass admission, mirroring BeginLong locally.
		t = sess.s.tm.BeginLong()
	} else {
		var err error
		t, err = sess.s.tm.BeginCtx(rd.ctx)
		if err != nil {
			rd.replyErr(reqID, wire.PayloadOf(err))
			return
		}
	}
	st := &sessTxn{t: t}
	sess.mu.Lock()
	if sess.expired {
		// Lost the race with teardown: don't leak the transaction.
		sess.mu.Unlock()
		t.Abort()
		rd.replyErr(reqID, wire.ErrPayload{Cause: wire.CauseExpired, Message: "session expired"})
		return
	}
	sess.txns[uint64(t.ID())] = st
	sess.mu.Unlock()
	send(rd, reqID, wire.TTxn, wire.TxnReply{Txn: uint64(t.ID())})
}

// lookup resolves a wire txn id to this session's transaction. Ids from
// other sessions resolve to not-active — sessions cannot operate on
// transactions they do not own.
func (sess *session) lookup(id uint64) *sessTxn {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.txns[id]
}

func (rd *reader) handleLock(reqID uint64, m wire.LockReq) {
	st := rd.sess.lookup(m.Txn)
	if st == nil {
		rd.replyNotActive(reqID, m.Txn)
		return
	}
	if !st.mu.TryLock() {
		// An earlier request of this transaction is still parked (the
		// client abandoned it, or drives the transaction from two
		// goroutines): queue behind it off the read loop.
		rd.sess.handoffLock(reqID, st, m)
		return
	}
	rd.lockHeld(reqID, st, m)
}

func (sess *session) handoffLock(reqID uint64, st *sessTxn, m wire.LockReq) {
	m.Node.Path = slices.Clone(m.Node.Path) // the reader's scratch moves on
	sess.handoff(true, func(rd *reader) {
		st.mu.Lock()
		rd.lockHeld(reqID, st, m)
	})
}

// lockHeld runs the acquisition with st.mu held and releases it — after
// the reply, so one transaction's replies leave in the order it was served.
func (rd *reader) lockHeld(reqID uint64, st *sessTxn, m wire.LockReq) {
	err := st.t.Lock(rd.ctx, m.Node.Node(), m.Mode, txn.Option{NoFollow: m.NoFollow, Timeout: m.Timeout})
	rd.replyOutcome(reqID, err)
	st.mu.Unlock()
}

func (rd *reader) handleDowngrade(reqID uint64, m wire.DowngradeReq) {
	st := rd.sess.lookup(m.Txn)
	if st == nil {
		rd.replyNotActive(reqID, m.Txn)
		return
	}
	keep := make([]store.Path, 0, len(m.Keep))
	for _, p := range m.Keep {
		keep = append(keep, store.Path(p))
	}
	st.mu.Lock()
	err := st.t.DeEscalate(m.Node.Node(), keep)
	st.mu.Unlock()
	rd.replyOutcome(reqID, err)
}

func (rd *reader) handleRelease(reqID uint64, m wire.ReleaseReq) {
	st := rd.sess.lookup(m.Txn)
	if st == nil {
		rd.replyNotActive(reqID, m.Txn)
		return
	}
	st.mu.Lock()
	err := st.t.Unlock(m.Node.Node())
	st.mu.Unlock()
	rd.replyOutcome(reqID, err)
}

func (rd *reader) handleFinish(reqID, txnID uint64, commit bool) {
	sess := rd.sess
	sess.mu.Lock()
	st := sess.txns[txnID]
	delete(sess.txns, txnID)
	sess.mu.Unlock()
	if st == nil {
		rd.replyNotActive(reqID, txnID)
		return
	}
	if !st.mu.TryLock() {
		// The transaction's earlier request is still parked (Abort after a
		// ctx-abandoned Lock): finish once it resolves, off the read loop.
		sess.handoff(false, func(rd *reader) {
			st.mu.Lock()
			rd.finishHeld(reqID, st, commit)
		})
		return
	}
	rd.finishHeld(reqID, st, commit)
}

// finishHeld ends the transaction with st.mu held and releases it, like
// lockHeld.
func (rd *reader) finishHeld(reqID uint64, st *sessTxn, commit bool) {
	var err error
	if commit {
		err = st.t.Commit()
	} else {
		st.t.Abort()
	}
	rd.replyOutcome(reqID, err)
	st.mu.Unlock()
}

// expire enforces a missed lease: notify the client (unsolicited TErr on
// reqid 0), cut the connection, and let teardown abort the transactions.
func (sess *session) expire() {
	(&reader{sess: sess}).replyErr(0, wire.ErrPayload{
		Cause:   wire.CauseExpired,
		Message: "session lease expired; transactions aborted",
	})
	sess.close()
}

// close cuts the connection; the read loop then fails and its reader
// finalizes the session.
func (sess *session) close() {
	sess.cancel()
	sess.wclosed.Store(true)
	_ = sess.conn.Close()
}

// finalize aborts whatever the session still owns. It runs exactly once,
// after the read loop has ended: canceling ctx withdraws every request
// still parked in a lock wait, and waiting for the requests in flight
// means no goroutine touches a Txn while it is aborted here.
func (sess *session) finalize() {
	sess.finalizeOnce.Do(func() {
		sess.close()
		sess.reqWG.Wait()
		sess.mu.Lock()
		sess.expired = true
		txns := sess.txns
		sess.txns = make(map[uint64]*sessTxn)
		sess.mu.Unlock()
		for _, st := range txns {
			st.t.Abort()
		}
	})
}
