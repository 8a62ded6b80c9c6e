// Package client is the Go client for the colockd network lock service:
// Dial opens a session speaking the wire protocol (DESIGN.md §16), Begin
// hands out transactions whose Lock/LockPath/DeEscalate/Unlock/Commit/
// Abort mirror the in-process internal/txn API, and RunWithRetry restarts
// transactions on the causes the server reports — deadlock victim,
// wait-die death, timeout, shed — exactly as the local retry layer does,
// because failures arrive as the same *lock.LockError values (cause
// sentinel and blocker set reconstructed from the wire).
//
// A session is leased: the client keeps it alive automatically by pinging
// at a third of the server-announced interval. If the process stalls past
// the lease (or the connection drops), the server aborts the session's
// transactions and releases their locks — the workstation-crash semantics
// of the paper's workstation–server model. Requests are pipelined over one
// TCP connection: any number of goroutines may share a Client, and each
// transaction must be driven by one goroutine at a time, like a local
// txn.Txn.
//
// Context cancellation on Begin/Lock returns promptly, like its local
// counterpart, but withdraws the wait only client-side: the wire has no
// withdraw frame, so the server may still perform the abandoned
// operation. An abandoned Begin's transaction is aborted automatically
// when its reply arrives; after an abandoned Lock the transaction may
// hold the lock and should be aborted to discard it.
//
// Who reads the connection, and when. There is no dedicated reader
// goroutine between a call and its reply: a call that finds nobody reading
// reads the connection itself until its own reply arrives, so a round
// trip from one goroutine blocks only in the socket. While it reads it
// delivers the replies of other goroutines' calls to them, and when it is
// done — reply in hand, or its context canceled — it passes the reader
// role to a call that is still waiting. Calls made while another call
// reads wait on a channel, and so does a call that arrives while the
// session's background goroutine reads: that goroutine takes the role
// only after the session has been idle for 10 ms, to notice lease expiry,
// drain notices and a dropped connection (Err reports them with no call
// in flight), and gives it up at the first reply it delivers. None of this
// is visible in the API; it is why a call's latency is a socket round
// trip and not a round trip plus two goroutine hand-offs.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/wire"
)

// ErrClosed is returned for calls on a closed or broken session. The
// Client records the first fatal error; Err returns it.
var ErrClosed = errors.New("client: session closed")

// Options tunes Dial.
type Options struct {
	// NoKeepalive disables the automatic lease ping. The caller then owns
	// the lease: without frames the server expires the session and aborts
	// its transactions. Meant for tests and for processes with their own
	// heartbeat discipline.
	NoKeepalive bool
}

// Client is one wire session. Safe for concurrent use; requests from many
// goroutines pipeline over the single connection. The package comment
// says who reads it: the reader role below is held by one call at a time,
// or by the background goroutine while the session idles.
type Client struct {
	conn    net.Conn
	fw      *wire.FrameWriter
	fr      *wire.FrameReader // the reader role's
	session uint64
	lease   time.Duration

	nextReq atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan reply
	reader  uint64 // request id holding the reader role; 0 free, idleReader the background goroutine
	poked   bool   // a canceled reader's read deadline is set and must be cleared
	err     error  // first fatal error; nil while healthy
	closed  bool

	stop     chan struct{} // closed by fail
	pingDone chan struct{}
	readDone chan struct{}
}

// reply is a decoded reply frame — decoded by whichever goroutine read it,
// because the frame's payload is only borrowed from the read buffer — or,
// with lead set, the reader role being passed to a waiting call.
type reply struct {
	typ  byte
	txn  uint64 // TTxn
	err  error  // TErr, or a reply that did not decode
	lead bool
}

const (
	// idleReader is the background goroutine's name in Client.reader;
	// request ids count up from 1 and never reach it.
	idleReader = ^uint64(0)
	// idlePoll is how long the connection goes unread once calls stop,
	// and so the background goroutine's whole cost while calls flow.
	idlePoll = 10 * time.Millisecond
	// dialTimeout bounds Dial's TCP connect + handshake.
	dialTimeout = 10 * time.Second
)

// replyChans recycles the one-shot reply channels of completed calls.
var replyChans = sync.Pool{New: func() any { return make(chan reply, 1) }}

// Dial connects to a colockd server and performs the handshake. The
// returned client's lease keepalive is already running (unless disabled).
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := wire.WriteHello(conn, wire.Hello{Version: wire.Version}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	wl, err := wire.ReadWelcome(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	switch wl.Code {
	case wire.WelcomeOK:
	case wire.WelcomeVersionUnsupported:
		conn.Close()
		return nil, fmt.Errorf("client: server speaks version %d, this client version %d", wl.Version, wire.Version)
	case wire.WelcomeDraining:
		conn.Close()
		return nil, fmt.Errorf("client: %w", wire.ErrDraining)
	case wire.WelcomeSessionLimit:
		conn.Close()
		return nil, fmt.Errorf("client: server at session limit (%w)", wire.ErrBusy)
	default:
		conn.Close()
		return nil, fmt.Errorf("client: handshake refused with code %d", wl.Code)
	}
	c := &Client{
		conn:     conn,
		fw:       wire.NewFrameWriter(conn),
		fr:       wire.NewFrameReader(conn),
		session:  wl.Session,
		lease:    time.Duration(wl.Lease),
		pending:  make(map[uint64]chan reply),
		stop:     make(chan struct{}),
		pingDone: make(chan struct{}),
		readDone: make(chan struct{}),
	}
	go c.idleLoop()
	if opts.NoKeepalive || c.lease <= 0 {
		close(c.pingDone)
	} else {
		go c.keepalive()
	}
	return c, nil
}

// Session returns the server-assigned session id.
func (c *Client) Session() uint64 { return c.session }

// Lease returns the server-announced lease interval the session must beat.
func (c *Client) Lease() time.Duration { return c.lease }

// Err returns the error that broke the session, or nil while healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

func (c *Client) errLocked() error {
	if c.closed && c.err == nil {
		return ErrClosed
	}
	return c.err
}

// Close ends the session. Server-side, the connection teardown aborts any
// transactions still active — equivalent to a workstation crash, so no
// lock outlives the session.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	<-c.pingDone
	<-c.readDone
	return nil
}

// fail records the first fatal error, fails every pending call and closes
// the connection. Idempotent.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if !errors.Is(err, ErrClosed) {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan reply)
	c.mu.Unlock()
	close(c.stop)
	_ = c.conn.Close()
	for _, ch := range pending {
		close(ch) // receivers observe the closed channel and report Err
	}
}

// idleLoop is the background goroutine: whenever the session has no call
// in flight and nobody reading, it reads — until a call turns up.
func (c *Client) idleLoop() {
	defer close(c.readDone)
	poll := time.NewTimer(idlePoll)
	defer poll.Stop()
	for {
		c.mu.Lock()
		idle := !c.closed && c.reader == 0 && len(c.pending) == 0
		if idle {
			c.reader = idleReader
		}
		c.mu.Unlock()
		if idle {
			c.read(nil, idleReader)
		}
		poll.Reset(idlePoll)
		select {
		case <-c.stop:
			return
		case <-poll.C:
		}
	}
}

// read is the reader role: it reads frames, delivering each to the call
// that owns it, until the frame of call id arrives (returned decoded), ctx
// is canceled (its error), or the connection fails (the session's error,
// after failing it). The background goroutine, which owns no call, stops
// after the first delivery instead. However it ends, the role has been
// passed on.
func (c *Client) read(ctx context.Context, id uint64) (reply, error) {
	for {
		f, err := c.fr.Next()
		if err != nil {
			if ctx != nil && ctx.Err() != nil && errors.Is(err, os.ErrDeadlineExceeded) {
				// cancelRead's deadline, not the connection's failure: the
				// buffer keeps what was read, the next reader resumes there.
				c.release(id)
				return reply{}, ctx.Err()
			}
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("client: connection closed by server (%w)", ErrClosed)
			}
			c.fail(err)
			return reply{}, c.Err()
		}
		r := decodeReply(f)
		switch f.ReqID {
		case id:
			c.release(id)
			return r, nil
		case 0:
			// Unsolicited server notices (lease expiry, drain) are
			// session-fatal by spec.
			if r.err == nil {
				r.err = fmt.Errorf("client: unsolicited %s notice", wire.TypeName(f.Type))
			}
			c.fail(r.err)
			return reply{}, c.Err()
		}
		c.mu.Lock()
		ch := c.pending[f.ReqID]
		delete(c.pending, f.ReqID)
		c.mu.Unlock()
		switch {
		case ch != nil:
			ch <- r
			if id == idleReader {
				c.release(id)
				return reply{}, nil
			}
		case r.typ == wire.TTxn && r.err == nil:
			// No owner: the call was withdrawn by ctx cancellation. A plain
			// outcome is dropped, but a Txn reply means an abandoned Begin
			// created a transaction nobody will ever drive — abort it so
			// its (future) locks cannot outlive the caller that gave up.
			go func() { _ = callOutcome(c, nil, wire.TAbort, wire.TxnReq{Txn: r.txn}) }()
		}
	}
}

// decodeReply decodes a reply frame while its borrowed payload is valid.
func decodeReply(f wire.Frame) reply {
	r := reply{typ: f.Type}
	switch f.Type {
	case wire.TTxn:
		var m wire.TxnReply
		m, r.err = wire.DecodeTxnReply(f.Payload)
		r.txn = m.Txn
	case wire.TErr:
		var p wire.ErrPayload
		if p, r.err = wire.DecodeErrPayload(f.Payload); r.err == nil {
			r.err = p.Err()
		}
	}
	return r
}

// release ends call id's turn as reader: its own entry leaves pending, a
// deadline cancelRead set is cleared, and the role passes to a call still
// waiting for its reply, if there is one.
func (c *Client) release(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, id)
	if c.poked {
		c.poked = false
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	c.reader = 0
	for next, ch := range c.pending {
		c.reader = next
		ch <- reply{lead: true} // ch is empty: a pending call has been sent nothing
		return
	}
}

// cancelRead interrupts call id's blocking read when its ctx is canceled,
// by way of the read deadline — and only if the call still holds the
// reader role, so a late cancellation cannot disturb a successor.
func (c *Client) cancelRead(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reader == id {
		c.poked = true
		_ = c.conn.SetReadDeadline(time.Unix(1, 0))
	}
}

// keepalive pings at a third of the lease so two losses still beat the
// deadline. The interval is floored at 1ms so a degenerate lease from
// the server cannot panic the ticker.
func (c *Client) keepalive() {
	defer close(c.pingDone)
	interval := c.lease / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			if err := c.Ping(); err != nil {
				return // session already failed; Ping recorded why
			}
		}
	}
}

// call sends one request frame — encoded straight into the connection's
// write buffer — and waits for its reply, reading the connection itself
// when nobody else is (see Client). A canceled ctx withdraws the wait
// client-side and ctx.Err() is returned. The server still executes the
// abandoned request — the wire has no withdraw frame — so after a canceled
// Lock the transaction's remote state is indeterminate and the caller
// should abort it; an abandoned Begin is cleaned up by whoever reads its
// Txn reply, which aborts the orphan.
func call[P wire.Payload](c *Client, ctx context.Context, typ byte, req P) (reply, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	id := c.nextReq.Add(1)
	var ch chan reply
	c.mu.Lock()
	if c.closed {
		err := c.errLocked()
		c.mu.Unlock()
		return reply{}, err
	}
	lead := c.reader == 0
	if lead {
		c.reader = id // and no pending entry: a reader takes its own reply off the wire
	} else {
		ch = replyChans.Get().(chan reply)
		c.pending[id] = ch
	}
	c.mu.Unlock()

	if err := wire.Send(c.fw, typ, id, req, true); err != nil {
		c.fail(fmt.Errorf("client: write: %w", err))
		return reply{}, c.Err()
	}
	if !lead {
		select {
		case r, ok := <-ch:
			if !ok {
				// Closed by fail(): the session is dead and the channel spent.
				return reply{}, c.Err()
			}
			if !r.lead {
				replyChans.Put(ch)
				return r, nil
			}
			// Handed the reader role: read on. (ch is not pooled from here:
			// fail may close it while this call reads.)
		case <-done:
			c.mu.Lock()
			_, mine := c.pending[id]
			lead = c.reader == id
			if mine && !lead {
				delete(c.pending, id)
			}
			c.mu.Unlock()
			switch {
			case lead:
				// Handed the role as the cancel fired: pass it straight on.
				c.release(id)
				return reply{}, ctx.Err()
			case mine:
				// Withdrawn before the reply arrived. The channel is NOT
				// pooled: a reader may have fetched it just before the
				// delete and still deliver into it; reusing it would
				// cross-wire a stale reply into a future call.
				return reply{}, ctx.Err()
			}
			// The reply raced the cancel and won (a reader or fail already
			// claimed the entry): take it, the work is done anyway.
			r, ok := <-ch
			if !ok {
				return reply{}, c.Err()
			}
			replyChans.Put(ch)
			return r, nil
		}
	}
	if done != nil {
		defer context.AfterFunc(ctx, func() { c.cancelRead(id) })()
	}
	return c.read(ctx, id)
}

// callOutcome is call for requests answered by TOK / TErr.
func callOutcome[P wire.Payload](c *Client, ctx context.Context, typ byte, req P) error {
	r, err := call(c, ctx, typ, req)
	if err != nil {
		return err
	}
	switch r.typ {
	case wire.TOK:
		return nil
	case wire.TErr:
		return r.err
	}
	return fmt.Errorf("client: unexpected %s reply", wire.TypeName(r.typ))
}

// Ping refreshes the lease explicitly (the keepalive calls it for you).
func (c *Client) Ping() error {
	r, err := call(c, nil, wire.TPing, wire.NoPayload{})
	if err != nil {
		return err
	}
	if r.typ != wire.TPong {
		return fmt.Errorf("client: unexpected %s reply to Ping", wire.TypeName(r.typ))
	}
	return nil
}
