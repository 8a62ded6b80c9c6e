package client

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/txn"
	"colock/internal/wire"
)

// ErrNotActive is returned when operating on a finished transaction; it
// matches the wire's not-active cause as well, so a transaction the server
// aborted (lease expiry) reports the same way as one finished locally.
var ErrNotActive = wire.ErrNotActive

// Txn is a remote transaction. Like the in-process txn.Txn it is a single
// thread of execution: one goroutine drives it at a time, while the
// Client underneath is fully concurrent.
type Txn struct {
	c    *Client
	id   lock.TxnID
	long bool

	finished atomic.Bool
}

// Begin starts a short transaction on the server. Admission control
// (shed/degrade) applies exactly as for a local BeginCtx; a shed Begin
// returns an error matching lock.ErrShed, which RunWithRetry retries.
func (c *Client) Begin(ctx context.Context) (*Txn, error) {
	return c.begin(ctx, false)
}

// BeginLong starts a long (durable-lock) transaction: its locks survive a
// simulated server crash, per the paper's check-out model.
func (c *Client) BeginLong(ctx context.Context) (*Txn, error) {
	return c.begin(ctx, true)
}

func (c *Client) begin(ctx context.Context, long bool) (*Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := call(c, ctx, wire.TBegin, wire.BeginReq{Long: long})
	if err != nil {
		return nil, err
	}
	switch {
	case r.err != nil:
		return nil, r.err
	case r.typ == wire.TTxn:
		return &Txn{c: c, id: lock.TxnID(r.txn), long: long}, nil
	}
	return nil, fmt.Errorf("client: unexpected %s reply to Begin", wire.TypeName(r.typ))
}

// ID returns the server-assigned transaction identifier. Ids are global
// across all sessions of the server, so wait-die age ordering spans every
// connected client.
func (t *Txn) ID() lock.TxnID { return t.id }

// Long reports whether this is a long (durable-lock) transaction.
func (t *Txn) Long() bool { return t.long }

func (t *Txn) checkActive() error {
	if t.finished.Load() {
		return ErrNotActive
	}
	return nil
}

// effTimeout folds a ctx deadline into the wire timeout: the smaller of
// the option timeout and the remaining ctx budget travels to the server,
// so per-attempt budgets (RunWithRetry's WithAttemptTimeout) bound remote
// acquisitions the same way they bound local ones. An already-expired
// budget fails fast client-side.
func effTimeout(ctx context.Context, opt time.Duration) (time.Duration, error) {
	d, ok := ctx.Deadline()
	if !ok {
		return opt, nil
	}
	rem := time.Until(d)
	if rem <= 0 {
		return 0, context.DeadlineExceeded
	}
	if opt <= 0 || rem < opt {
		return rem, nil
	}
	return opt, nil
}

// Lock acquires a protocol lock on a node, mirroring txn.Txn.Lock: the
// full rule 1-5 chain runs server-side; WithTimeout bounds each
// acquisition; WithNoFollow skips downward propagation into referenced
// common data. On a failure the error is the server's *lock.LockError,
// cause sentinel and blocker set intact. A nil ctx is allowed. A ctx
// deadline travels to the server as a wait bound; cancellation without a
// deadline returns promptly but only abandons the wait client-side — the
// wire has no withdraw frame, so the server may still grant the lock to
// the transaction, which should then be aborted to discard it.
func (t *Txn) Lock(ctx context.Context, n core.Node, mode lock.Mode, opts ...Option) error {
	return t.lock(ctx, wire.TLock, wire.RefOf(n), mode, opts)
}

// LockPath is Lock on a data path.
func (t *Txn) LockPath(ctx context.Context, p store.Path, mode lock.Mode, opts ...Option) error {
	return t.lock(ctx, wire.TLockPath, wire.NodeRef{Level: wire.NodePath, Path: p}, mode, opts)
}

func (t *Txn) lock(ctx context.Context, typ byte, ref wire.NodeRef, mode lock.Mode, opts []Option) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg := txn.Fold(opts)
	timeout, err := effTimeout(ctx, cfg.Timeout)
	if err != nil {
		return &lock.LockError{Txn: t.id, Mode: mode, Cause: err}
	}
	return callOutcome(t.c, ctx, typ, wire.LockReq{
		Txn:      uint64(t.id),
		Node:     ref,
		Mode:     mode,
		NoFollow: cfg.NoFollow,
		Timeout:  timeout,
	})
}

// DeEscalate trades the transaction's coarse S/X lock on a node for locks
// of the same mode on the kept descendant paths (§5 de-escalation). On the
// wire this is the Downgrade frame.
func (t *Txn) DeEscalate(n core.Node, keep []store.Path) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	ks := make([][]string, 0, len(keep))
	for _, p := range keep {
		ks = append(ks, p)
	}
	return callOutcome(t.c, nil, wire.TDowngrade, wire.DowngradeReq{
		Txn:  uint64(t.id),
		Node: wire.RefOf(n),
		Keep: ks,
	})
}

// Unlock releases a single lock early in leaf-to-root order (rule 5),
// giving up strictness like its local counterpart. On the wire this is
// the Release frame.
func (t *Txn) Unlock(n core.Node) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	return callOutcome(t.c, nil, wire.TRelease, wire.ReleaseReq{
		Txn:  uint64(t.id),
		Node: wire.RefOf(n),
	})
}

// refusedUnexecuted reports whether a finish request was turned away by
// an admission layer without reaching the transaction — the server-side
// txn is then still live and the client must not mark it finished, or
// its locks leak until the whole session closes. Servers exempt Commit
// and Abort from the max-inflight cap, so this is a defensive guard for
// peers that do not.
func refusedUnexecuted(err error) bool {
	return errors.Is(err, lock.ErrShed)
}

// Commit commits the transaction server-side, releasing all its locks.
// If the request is refused before executing (a shed-classified
// admission error), the transaction stays active: retry Commit, or
// Abort it — do not abandon it, its locks are still held.
func (t *Txn) Commit() error {
	if !t.finished.CompareAndSwap(false, true) {
		return ErrNotActive
	}
	err := callOutcome(t.c, nil, wire.TCommit, wire.TxnReq{Txn: uint64(t.id)})
	if err != nil && refusedUnexecuted(err) {
		t.finished.Store(false)
	}
	return err
}

// Abort aborts the transaction server-side, releasing all its locks.
// Aborting a finished transaction is a no-op, and a session-level failure
// is swallowed — the server aborts orphaned transactions on teardown
// anyway, so Abort is safe in deferred cleanup paths. An admission
// refusal (which leaves the transaction live) is retried briefly so a
// momentary max-inflight spike cannot leak the transaction's locks.
func (t *Txn) Abort() {
	if !t.finished.CompareAndSwap(false, true) {
		return
	}
	for attempt := 0; ; attempt++ {
		err := callOutcome(t.c, nil, wire.TAbort, wire.TxnReq{Txn: uint64(t.id)})
		if err == nil || !refusedUnexecuted(err) || attempt >= 4 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// RunWithRetry executes body inside a fresh remote transaction per
// attempt, retrying every failure the resilience layer classifies as
// transient — deadlock victim, wait-die death, timeout, shed (including
// server-side drain and busy refusals, which the wire maps onto the shed
// cause). Because the client reconstructs the server's *lock.LockError
// values, classification is byte-for-byte the decision the in-process
// RunWithRetry would have made. Defaults: 10 attempts, immediate restart.
func (c *Client) RunWithRetry(ctx context.Context, body func(*Txn) error, opts ...Option) error {
	return txn.Retrier(opts).Run(ctx, func(actx context.Context) error {
		t, err := c.beginRetryable(actx)
		if err != nil {
			return err
		}
		if err := body(t); err != nil {
			t.Abort()
			return err
		}
		if err := t.Commit(); err != nil {
			// A refused Commit leaves the transaction live; abort it so
			// the retry's fresh transaction cannot queue behind the old
			// one's locks (no-op when Commit actually finished).
			t.Abort()
			return err
		}
		return nil
	})
}

// beginRetryable is Begin, but a Begin refused because the attempt budget
// expired is normalized so Classify treats it as a timeout.
func (c *Client) beginRetryable(ctx context.Context) (*Txn, error) {
	t, err := c.Begin(ctx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil {
		return nil, &lock.LockError{Cause: context.DeadlineExceeded}
	}
	return t, err
}
