// Package server exposes the lock protocol as a network service: a TCP
// listener speaking the internal/wire protocol (DESIGN.md §16), one
// session per connection, each session binding its transactions to a lease
// the client must keep alive. A session that misses its lease deadline is
// expired — its transactions abort and their locks are released, exactly
// as if the workstation had crashed in the paper's workstation–server
// model. The server maps its admission knobs (max sessions, max in-flight
// requests per session, lock-manager waiter depth) onto retryable shed
// replies so the resilience layer on the client side rides storms out, and
// it drains gracefully on demand: new sessions are refused while in-flight
// transactions finish.
//
// The server adds no lock semantics of its own — every request lands in
// the same internal/txn manager an in-process caller uses, so the health
// monitor, the journal, tracing and the obs endpoint see network traffic
// exactly like local traffic.
package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/txn"
	"colock/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Lease is the keepalive interval: a session must deliver at least one
	// frame (a Ping suffices) per lease or it is expired and its
	// transactions aborted. Defaults to 5s; values below 20ms are clamped
	// up (the lease poller and client keepalive divide the interval). The
	// effective interval is announced in the handshake so clients size
	// their keepalive cadence from it.
	Lease time.Duration
	// MaxSessions caps concurrent sessions; further handshakes are refused
	// with WelcomeSessionLimit. Zero means unlimited.
	MaxSessions int
	// MaxInflight caps the requests a session may have executing or parked
	// in a lock wait at once; excess requests are refused with a retryable
	// CauseBusy error instead of queueing (queueing would stall the read
	// loop and starve the lease). Zero defaults to 64.
	MaxInflight int
	// Logf receives connection-level diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Server serves the wire protocol over a listener.
type Server struct {
	tm   *txn.Manager
	opts Options
	ln   net.Listener

	mu       sync.Mutex
	sessions map[uint64]*session
	draining bool
	closed   bool

	nextSession atomic.Uint64
	wg          sync.WaitGroup // per-connection goroutines
	stopLease   chan struct{}

	// Counters exposed via WriteMetrics (colock_server_* family).
	sessionsTotal   atomic.Uint64
	sessionsRefused atomic.Uint64
	leaseExpiries   atomic.Uint64
	framesRead      atomic.Uint64
	framesWritten   atomic.Uint64
	errorReplies    atomic.Uint64
	busyRefusals    atomic.Uint64
}

// minLease floors the configured lease: the lease poller and the client
// keepalive both divide it into ticker intervals, and sub-millisecond
// leases would expire sessions faster than a loopback round trip anyway.
const minLease = 20 * time.Millisecond

// New wraps a transaction manager in an (unstarted) server.
func New(tm *txn.Manager, opts Options) *Server {
	if opts.Lease <= 0 {
		opts.Lease = 5 * time.Second
	} else if opts.Lease < minLease {
		opts.Lease = minLease
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 64
	}
	return &Server{
		tm:        tm,
		opts:      opts,
		sessions:  make(map[uint64]*session),
		stopLease: make(chan struct{}),
	}
}

// Serve starts listening on addr ("host:port"; ":0" picks a free port) and
// accepts sessions until Close or Drain. It returns once the listener is
// live; use Addr for the bound address.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(2)
	go s.acceptLoop()
	go s.leaseLoop()
	return nil
}

// Addr returns the listener's address (valid after Serve).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Close/Drain)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// handshake admits or refuses the connection. It returns a registered
// session, or nil after writing the refusal welcome.
func (s *Server) handshake(conn net.Conn) *session {
	// A peer that never completes the 8-byte hello must not pin the
	// goroutine forever.
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	hello, err := wire.ReadHello(conn)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		s.logf("handshake from %s: %v", conn.RemoteAddr(), err)
		return nil
	}
	refuse := func(code uint16) {
		s.sessionsRefused.Add(1)
		_ = wire.WriteWelcome(conn, wire.Welcome{Version: wire.Version, Code: code})
	}
	if hello.Version != wire.Version {
		refuse(wire.WelcomeVersionUnsupported)
		return nil
	}
	id := s.nextSession.Add(1)
	sess := newSession(s, id, conn)
	s.mu.Lock()
	switch {
	case s.draining || s.closed:
		s.mu.Unlock()
		refuse(wire.WelcomeDraining)
		return nil
	case s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions:
		s.mu.Unlock()
		refuse(wire.WelcomeSessionLimit)
		return nil
	default:
		s.sessions[id] = sess
		s.mu.Unlock()
	}
	if err := wire.WriteWelcome(conn, wire.Welcome{
		Version: wire.Version,
		Code:    wire.WelcomeOK,
		Session: id,
		Lease:   int64(s.opts.Lease),
	}); err != nil {
		s.dropSession(sess)
		return nil
	}
	s.sessionsTotal.Add(1)
	return sess
}

func (s *Server) handleConn(conn net.Conn) {
	sess := s.handshake(conn)
	if sess == nil {
		conn.Close()
		return
	}
	sess.serve()
}

// dropSession finalizes a session — the connection closed, anything still
// active aborted, exactly once — and then unregisters it, so a session
// gone from SessionCount holds no lock.
func (s *Server) dropSession(sess *session) {
	sess.finalize()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
}

// leaseLoop expires sessions that missed their lease deadline. A session's
// frame counter moving between two ticks is its lease refresh, stamped
// with the later tick, so polling at a quarter lease bounds detection
// latency to 1.5 leases and never expires early.
func (s *Server) leaseLoop() {
	defer s.wg.Done()
	interval := s.opts.Lease / 4
	if interval <= 0 { // unreachable given the minLease clamp; keep NewTicker safe
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopLease:
			return
		case now := <-tick.C:
			s.mu.Lock()
			var expired []*session
			for _, sess := range s.sessions {
				if n := sess.frames.Load(); n != sess.polled {
					sess.polled, sess.polledAt = n, now
				} else if now.Sub(sess.polledAt) > s.opts.Lease && !sess.wclosed.Load() {
					expired = append(expired, sess)
				}
			}
			s.mu.Unlock()
			for _, sess := range expired {
				s.leaseExpiries.Add(1)
				s.logf("session %d: lease expired, aborting its transactions", sess.id)
				sess.expire()
			}
		}
	}
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Draining reports whether the server refuses new sessions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops accepting sessions and transactions — new handshakes get
// WelcomeDraining, new Begins a retryable CauseDraining error — and waits
// for in-flight transactions to finish, then closes every connection and
// the listener. ctx bounds the wait; on expiry remaining sessions are cut
// (their transactions abort via session teardown, releasing their locks,
// so a hung client cannot wedge shutdown).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	err := ctx.Err()
	for err == nil {
		if s.activeTxns() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.shutdown()
	return err
}

// activeTxns counts unfinished transactions across live sessions.
func (s *Server) activeTxns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sess := range s.sessions {
		n += sess.txnCount()
	}
	return n
}

// Close tears the server down immediately: listener closed, every session
// cut, every still-active transaction aborted (locks released).
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.shutdown()
	return nil
}

func (s *Server) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	close(s.stopLease)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, sess := range sessions {
		sess.close()
	}
	s.wg.Wait()
}

// WriteMetrics appends the colock_server_* Prometheus family, for wiring
// as an extra writer on engine.Engine.ServeObs.
func (s *Server) WriteMetrics(w io.Writer) {
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	s.mu.Lock()
	live := len(s.sessions)
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	gauge("colock_server_sessions", "Live wire sessions.", live)
	gauge("colock_server_draining", "1 while the server refuses new sessions.", draining)
	counter("colock_server_sessions_total", "Sessions admitted since start.", s.sessionsTotal.Load())
	counter("colock_server_sessions_refused_total", "Handshakes refused (version, drain, session cap).", s.sessionsRefused.Load())
	counter("colock_server_lease_expiries_total", "Sessions expired for missing the lease.", s.leaseExpiries.Load())
	counter("colock_server_frames_read_total", "Request frames read.", s.framesRead.Load())
	counter("colock_server_frames_written_total", "Reply frames written.", s.framesWritten.Load())
	counter("colock_server_error_replies_total", "TErr replies sent.", s.errorReplies.Load())
	counter("colock_server_busy_refusals_total", "Requests refused at the max-inflight cap.", s.busyRefusals.Load())
}
