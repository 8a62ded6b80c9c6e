// Package txn implements transactions over the complex-object store and the
// core lock protocol: strict two-phase locking (degree 3 consistency,
// GLPT76), undo-based rollback, commit/abort, deadlock-victim handling, and
// long ("conversational") transactions whose locks are durable and survive
// simulated system crashes — the workstation–server transaction model the
// paper's introduction motivates.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
)

// State is the lifecycle state of a transaction.
type State uint8

const (
	// Active transactions may lock and mutate data.
	Active State = iota
	// Committed transactions are finished; their effects are permanent.
	Committed
	// Aborted transactions are finished; their effects were undone.
	Aborted
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ErrNotActive is returned when operating on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// Manager creates and counts transactions.
//
// Begin and finish count on the stripe of the transaction's id only, so
// concurrent transactions do not write a common word besides the id counter
// (next), which stays one on purpose: ids order transactions for wait-die
// and the deadlock victim rule.
type Manager struct {
	proto   *core.Protocol
	st      *store.Store
	history atomic.Pointer[History]

	_    linePad
	next atomic.Uint64

	stripes [txnStripes]txnStripe
	_       linePad
}

// cacheLine is the coherence unit of the x86-64 and arm64 machines the lock
// path is tuned for; linePad keeps what precedes it and what follows it on
// different cache lines, whatever the alignment of the allocation.
const cacheLine = 64

type linePad [cacheLine]byte

// txnStripes is the number of stripes of the transaction counters;
// transaction id t counts in stripe t % txnStripes.
const txnStripes = 32

// txnStripe is one stripe of the transaction counters, on cache lines of its
// own: handles begun (Begin and Adopt) and finished either way.
type txnStripe struct {
	_       linePad
	begins  atomic.Uint64
	commits atomic.Uint64
	aborts  atomic.Uint64
}

// NewManager returns a transaction manager over a protocol and its store.
func NewManager(proto *core.Protocol, st *store.Store) *Manager {
	return &Manager{proto: proto, st: st}
}

// stripe returns id's stripe.
func (m *Manager) stripe(id lock.TxnID) *txnStripe {
	return &m.stripes[uint64(id)%txnStripes]
}

// Protocol returns the underlying lock protocol.
func (m *Manager) Protocol() *core.Protocol { return m.proto }

// Store returns the underlying store.
func (m *Manager) Store() *store.Store { return m.st }

// Begin starts a short transaction, bypassing admission control (callers
// that must respect the gate use BeginCtx).
func (m *Manager) Begin() *Txn {
	t, _ := m.begin(context.Background(), false, false)
	return t
}

// BeginCtx starts a short transaction gated by the lock manager's admission
// control: while the waits-for graph is saturated (shed mode), the Begin is
// delayed and then refused with an error wrapping lock.ErrShed — the
// Retrier classifies and retries it like any other transient abort. ctx
// also becomes the transaction's default context: internal lock
// acquisitions made by data operations (Read, UpdateAtomic, …) flow through
// it, which is how RunWithRetry's per-attempt budgets reach every acquire.
func (m *Manager) BeginCtx(ctx context.Context) (*Txn, error) {
	return m.begin(ctx, false, true)
}

// BeginLong starts a long transaction: all its locks are durable and survive
// a simulated system restart (check-out semantics).
func (m *Manager) BeginLong() *Txn {
	t, _ := m.begin(context.Background(), true, false)
	return t
}

func (m *Manager) begin(ctx context.Context, long, admit bool) (*Txn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id := lock.TxnID(m.next.Add(1))
	if admit {
		if err := m.proto.Manager().Admit(ctx, id); err != nil {
			return nil, err
		}
	}
	t := &Txn{
		id:   id,
		m:    m,
		long: long,
		ctx:  ctx,
	}
	m.stripe(id).begins.Add(1)
	return t, nil
}

// Adopt re-creates a handle for a long transaction restored after a crash
// (its durable locks are already in the lock manager). The ID space is
// advanced past id so new transactions do not collide.
func (m *Manager) Adopt(id lock.TxnID) *Txn {
	for {
		cur := m.next.Load()
		if uint64(id) <= cur || m.next.CompareAndSwap(cur, uint64(id)) {
			break
		}
	}
	t := &Txn{id: id, m: m, long: true, ctx: context.Background()}
	m.stripe(id).begins.Add(1)
	return t
}

// ActiveCount returns the number of unfinished transaction handles. It reads
// the finished counts before the begun ones, so a transaction finishing
// meanwhile is never subtracted without having been added.
func (m *Manager) ActiveCount() int {
	finished := m.Commits() + m.Aborts()
	var begun uint64
	for i := range m.stripes {
		begun += m.stripes[i].begins.Load()
	}
	return int(begun - finished)
}

// Commits returns the number of committed transactions.
func (m *Manager) Commits() uint64 {
	var n uint64
	for i := range m.stripes {
		n += m.stripes[i].commits.Load()
	}
	return n
}

// Aborts returns the number of aborted transactions.
func (m *Manager) Aborts() uint64 {
	var n uint64
	for i := range m.stripes {
		n += m.stripes[i].aborts.Load()
	}
	return n
}

func (m *Manager) finish(t *Txn, committed bool) {
	m.recordEnd(t.id, committed)
	s := m.stripe(t.id)
	if committed {
		s.commits.Add(1)
	} else {
		s.aborts.Add(1)
	}
	// Hand the transaction's span buffer to the flight recorder (a no-op
	// when tracing is off).
	m.proto.Tracer().FinishTxn(t.id)
}

// Txn is one transaction. A Txn is used by a single goroutine at a time
// (transactions are single "threads of execution"); the manager, store and
// lock protocol underneath are fully concurrent.
//
// A handle is the one allocation a transaction makes on the lock path, so
// it is kept to 56 bytes, the allocator's 64-byte class (TestTxnSize): the
// flags sit beside the mutex, and the undo log, which a transaction that
// only locks never needs, is allocated by its first entry.
type Txn struct {
	id lock.TxnID
	m  *Manager
	// ctx is the transaction's default context: internal lock acquisitions
	// made by data operations use it, so a per-attempt budget installed by
	// RunWithRetry (via BeginCtx) bounds every acquire of the attempt.
	ctx context.Context

	mu    sync.Mutex
	long  bool
	state State
	undo  *undoLog // nil until pushUndo; guarded by mu
}

// undoLog is a transaction's undo entries. The first five live in the log
// itself, so a transaction that makes up to five writes allocates its log
// once (64 bytes) where a growing slice allocated three times.
type undoLog struct {
	fns []func() error
	buf [5]func() error
}

// ID returns the transaction identifier.
func (t *Txn) ID() lock.TxnID { return t.id }

// Long reports whether this is a long (durable-lock) transaction.
func (t *Txn) Long() bool { return t.long }

// State returns the lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

func (t *Txn) checkActive() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return fmt.Errorf("%w (%v)", ErrNotActive, t.state)
	}
	return nil
}

// Lock acquires a protocol lock on a node — the single acquisition entry
// point, every variant expressed as an option: WithTimeout bounds each
// acquisition of the chain, WithNoFollow skips downward propagation into
// referenced common data. Growing phase of 2PL; locks are only released at
// commit or abort (strict 2PL). A nil ctx uses the transaction's own
// context (from BeginCtx). On cancellation, deadline expiry, or a
// deadlock-victim error, locks acquired earlier in the chain stay held (2PL
// forbids selective release) — the transaction must Abort.
func (t *Txn) Lock(ctx context.Context, n core.Node, mode lock.Mode, opts ...Option) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = t.ctx
	}
	cfg := Fold(opts)
	return t.m.proto.LockWith(ctx, t.id, n, mode, t.long, cfg.NoFollow, cfg.Timeout)
}

// LockPath is Lock on a data path.
func (t *Txn) LockPath(ctx context.Context, p store.Path, mode lock.Mode, opts ...Option) error {
	return t.Lock(ctx, core.DataNode(p), mode, opts...)
}

// DeEscalate trades the transaction's coarse S/X lock on a node for locks of
// the same mode on the kept descendant paths (§5 "de-escalation"). They
// inherit its durability. Like any early release, it is only safe once the
// transaction no longer depends on the released parts.
func (t *Txn) DeEscalate(n core.Node, keep []store.Path) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	return t.m.proto.DeEscalate(t.id, n, keep)
}

// Unlock releases a single lock early in leaf-to-root order (rule 5). Using
// it gives up strictness; the caller must know the data is no longer needed.
func (t *Txn) Unlock(n core.Node) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	return t.m.proto.Unlock(t.id, n)
}

// Read returns (a clone of) the value at path after S-locking it through the
// protocol. The clone keeps later store mutations from leaking into the
// reader, preserving degree-3 repeatable reads at the API boundary.
func (t *Txn) Read(p store.Path) (store.Value, error) {
	if err := t.LockPath(t.ctx, p, lock.S); err != nil {
		return nil, err
	}
	t.m.recordAccess(t.id, AccessR, p)
	return t.m.st.LookupClone(p)
}

// ReadAt returns the value at path assuming the transaction already holds a
// sufficient lock (e.g. from a planned coarse granule); it verifies coverage
// and fails otherwise instead of silently reading unprotected data.
func (t *Txn) ReadAt(p store.Path) (store.Value, error) {
	if err := t.require(p, lock.S, "read"); err != nil {
		return nil, err
	}
	t.m.recordAccess(t.id, AccessR, p)
	return t.m.st.LookupClone(p)
}

// UpdateAtomic X-locks the path and replaces its atomic value, recording an
// undo action.
func (t *Txn) UpdateAtomic(p store.Path, v store.Value) error {
	if err := t.LockPath(t.ctx, p, lock.X); err != nil {
		return err
	}
	return t.updateLocked(p, v)
}

// UpdateAtomicAt is UpdateAtomic for callers already holding a covering X
// lock (planned coarse granules).
func (t *Txn) UpdateAtomicAt(p store.Path, v store.Value) error {
	if err := t.require(p, lock.X, "update"); err != nil {
		return err
	}
	return t.updateLocked(p, v)
}

func (t *Txn) updateLocked(p store.Path, v store.Value) error {
	old, err := t.m.st.SetAtomic(p, v)
	if err != nil {
		return err
	}
	t.m.recordAccess(t.id, AccessW, p)
	t.pushUndo(func() error {
		_, err := t.m.st.SetAtomic(p, old)
		return err
	})
	return nil
}

// AddElem X-locks the collection and inserts an element.
func (t *Txn) AddElem(collection store.Path, id string, v store.Value) error {
	if err := t.LockPath(t.ctx, collection, lock.X); err != nil {
		return err
	}
	return t.addElemLocked(collection, id, v)
}

// AddElemAt is AddElem for callers already holding a covering X lock (e.g.
// from a planned coarse granule or a NOFOLLOW lock).
func (t *Txn) AddElemAt(collection store.Path, id string, v store.Value) error {
	if err := t.require(collection, lock.X, "mutation"); err != nil {
		return err
	}
	return t.addElemLocked(collection, id, v)
}

func (t *Txn) addElemLocked(collection store.Path, id string, v store.Value) error {
	if err := t.m.st.AddElem(collection, id, v); err != nil {
		return err
	}
	t.m.recordAccess(t.id, AccessW, collection)
	t.pushUndo(func() error {
		_, err := t.m.st.RemoveElem(collection, id)
		return err
	})
	return nil
}

// RemoveElem X-locks the collection and removes an element.
func (t *Txn) RemoveElem(collection store.Path, id string) error {
	if err := t.LockPath(t.ctx, collection, lock.X); err != nil {
		return err
	}
	return t.removeElemLocked(collection, id)
}

// RemoveElemAt is RemoveElem for callers already holding a covering X lock.
func (t *Txn) RemoveElemAt(collection store.Path, id string) error {
	if err := t.require(collection, lock.X, "mutation"); err != nil {
		return err
	}
	return t.removeElemLocked(collection, id)
}

func (t *Txn) removeElemLocked(collection store.Path, id string) error {
	old, err := t.m.st.RemoveElem(collection, id)
	if err != nil {
		return err
	}
	t.m.recordAccess(t.id, AccessW, collection)
	if old == nil {
		return nil // removing an absent element needs no undo
	}
	t.pushUndo(func() error {
		return t.m.st.AddElem(collection, id, old)
	})
	return nil
}

// require verifies the transaction is active and effectively holds mode on
// the path; verb names the refused access in the error.
func (t *Txn) require(p store.Path, mode lock.Mode, verb string) error {
	if err := t.checkActive(); err != nil {
		return err
	}
	em, err := t.m.proto.EffectiveMode(t.id, core.DataNode(p))
	if err != nil {
		return err
	}
	if !em.Covers(mode) {
		return fmt.Errorf("txn %d: %s of %q not covered (effective %v)", t.id, verb, p, em)
	}
	return nil
}

// Insert adds a new complex object: IX on the relation (via the protocol's
// ancestor chain) plus X on the new object's own resource, then the store
// insert. The phantom problem proper is out of the paper's scope (§5,
// future work).
func (t *Txn) Insert(relation, key string, obj *store.Tuple) error {
	p := store.P(relation, key)
	if err := t.LockPath(t.ctx, p, lock.X); err != nil {
		return err
	}
	if err := t.m.st.Insert(relation, key, obj); err != nil {
		return err
	}
	t.m.recordAccess(t.id, AccessW, p)
	t.pushUndo(func() error {
		t.m.st.Delete(relation, key)
		return nil
	})
	return nil
}

// Delete removes a complex object after X-locking it.
func (t *Txn) Delete(relation, key string) error {
	p := store.P(relation, key)
	if err := t.LockPath(t.ctx, p, lock.X); err != nil {
		return err
	}
	old := t.m.st.Delete(relation, key)
	t.m.recordAccess(t.id, AccessW, p)
	if old == nil {
		return nil
	}
	t.pushUndo(func() error {
		return t.m.st.Insert(relation, key, old)
	})
	return nil
}

func (t *Txn) pushUndo(fn func() error) {
	t.mu.Lock()
	if t.undo == nil {
		t.undo = new(undoLog)
		t.undo.fns = t.undo.buf[:0]
	}
	t.undo.fns = append(t.undo.fns, fn)
	t.mu.Unlock()
}

// undoLog returns the undo log (nil before the first entry). Caller holds
// t.mu.
func (t *Txn) undoLog() []func() error {
	if t.undo == nil {
		return nil
	}
	return t.undo.fns
}

// Savepoint marks the current position in the undo log. RollbackTo undoes
// everything after the mark.
type Savepoint int

// Savepoint returns a mark for partial rollback.
func (t *Txn) Savepoint() Savepoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Savepoint(len(t.undoLog()))
}

// RollbackTo undoes all mutations made after the savepoint, in reverse
// order. Locks acquired since the savepoint are retained (releasing them
// selectively would break two-phase locking); only the data changes are
// rolled back.
func (t *Txn) RollbackTo(sp Savepoint) error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return fmt.Errorf("%w (%v)", ErrNotActive, t.state)
	}
	log := t.undoLog()
	if sp < 0 || int(sp) > len(log) {
		t.mu.Unlock()
		return fmt.Errorf("txn %d: invalid savepoint %d (undo log has %d entries)", t.id, sp, len(log))
	}
	undo := log[sp:]
	if t.undo != nil {
		t.undo.fns = log[:sp]
	}
	t.mu.Unlock()
	for i := len(undo) - 1; i >= 0; i-- {
		if err := undo[i](); err != nil {
			return fmt.Errorf("txn %d: rollback to savepoint: %w", t.id, err)
		}
	}
	return nil
}

// Commit makes the transaction's effects permanent and releases all its
// locks (shrinking phase happens atomically at EOT — strict 2PL, which rule
// 5 permits: "locks are released at the end of the transaction in any
// order").
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return fmt.Errorf("%w (%v)", ErrNotActive, t.state)
	}
	t.state = Committed
	t.undo = nil
	t.mu.Unlock()
	t.m.proto.Release(t.id)
	t.m.finish(t, true)
	return nil
}

// Abort undoes all mutations in reverse order and releases all locks.
// Aborting a finished transaction is a no-op.
func (t *Txn) Abort() {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return
	}
	t.state = Aborted
	undo := t.undoLog()
	t.undo = nil
	t.mu.Unlock()
	for i := len(undo) - 1; i >= 0; i-- {
		if err := undo[i](); err != nil {
			// Undo against an in-memory store can only fail if the store
			// was corrupted outside the transaction system.
			panic(fmt.Sprintf("txn %d: undo failed: %v", t.id, err))
		}
	}
	t.m.proto.Release(t.id)
	t.m.finish(t, false)
}

// RunWithRetry executes body inside a fresh transaction per attempt,
// retrying every abort the resilience layer classifies as transient —
// deadlock victim, wait-die death, acquire timeout, shed by admission
// control, would-block — under the configured restart policy. Application
// errors and caller cancellation are returned without retrying. Each
// attempt begins through BeginCtx, so admission control gates restarts the
// same as first attempts, and WithAttemptTimeout budgets flow into every
// lock acquisition of the attempt. The body must use the supplied
// transaction for all data access and must be restartable: each attempt
// gets a fresh transaction with an empty undo log, so savepoints taken
// inside one attempt never leak into the next.
//
// Defaults: 10 attempts, immediate restart. Tune with WithMaxAttempts
// (<= 0 for unlimited), WithBackoff, WithAttemptTimeout and
// WithRetryObserver.
func (m *Manager) RunWithRetry(ctx context.Context, body func(*Txn) error, opts ...Option) error {
	return Retrier(opts).Run(ctx, func(actx context.Context) error {
		t, err := m.BeginCtx(actx)
		if err != nil {
			return err
		}
		if err := body(t); err != nil {
			t.Abort()
			return err
		}
		return t.Commit()
	})
}
