package lock

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TxnID identifies a transaction. Transaction IDs are assigned in start
// order, so a numerically larger ID means a younger transaction; the
// deadlock detector aborts the youngest member of a cycle.
type TxnID uint64

// Resource identifies a lockable unit. The core package uses hierarchical
// path strings such as "db1/seg1/cells/c1/robots/r1", but the lock manager
// treats resources as opaque: it keys its table by the ResID Intern assigns
// each name, and every name-taking method is Intern plus its id-taking
// twin.
type Resource string

// ErrDeadlock is returned from AcquireCtx when the requesting transaction
// was chosen as the victim of a deadlock cycle. The caller must abort the
// transaction and release all its locks.
var ErrDeadlock = errors.New("lock: deadlock victim")

// ErrDeadlockVictim is the classification alias for ErrDeadlock: restart
// policies match abort causes with errors.Is(err, ErrDeadlockVictim). Both
// detected victims and wait-die deaths satisfy it (the latter additionally
// match ErrWaitDie).
var ErrDeadlockVictim = ErrDeadlock

// ErrWaitDie is the cause of a wait-die death: under PolicyWaitDie a
// younger requester "dies" instead of waiting for an older transaction. It
// wraps ErrDeadlock, so errors.Is reports both — existing victim handling
// keeps working while restart policies can tell prevention deaths (safe to
// retry immediately once the older blocker drains) from detected cycles.
var ErrWaitDie = fmt.Errorf("%w (wait-die)", ErrDeadlock)

// ErrWouldBlock is returned by AcquireCtx with WithNoWait when the request
// cannot be granted immediately.
var ErrWouldBlock = errors.New("lock: would block")

// ErrTimeout is returned by AcquireCtx with WithTimeout when the deadline
// passes before the lock is granted. The request is withdrawn; locks
// already held by the transaction are unaffected.
var ErrTimeout = errors.New("lock: acquire timeout")

// ErrShed is returned when the admission gate refuses work because the
// waits-for graph is saturated: Admit sheds a Begin, or — in degrade mode —
// AcquireCtx refuses to queue a new waiter and fails fast so the caller
// retries under its backoff policy instead of deepening the queues.
var ErrShed = errors.New("lock: shed by admission control")

// Held describes one granted lock, as reported by HeldLocks.
type Held struct {
	Resource Resource
	Mode     Mode
	Durable  bool
	// Seq is the transaction's grant sequence number: its grants and
	// conversions numbered from 1 in the order they happened (acquisition
	// order), restarting after the transaction has held nothing.
	Seq uint64
}

// Policy selects how deadlocks are handled.
type Policy uint8

const (
	// PolicyDetect (default) lets requests wait and runs waits-for cycle
	// detection for every waiter still blocked after Options.DeadlockDefer,
	// aborting the youngest cycle member.
	PolicyDetect Policy = iota
	// PolicyWaitDie is the classic prevention scheme: an older transaction
	// may wait for a younger one, but a younger requester "dies"
	// immediately (ErrDeadlock) when it would have to wait for an older
	// holder. Deadlock-free by construction, at the price of spurious
	// aborts.
	PolicyWaitDie
	// PolicyNone disables detection and prevention entirely: waiters block
	// until granted or withdrawn (context, WithTimeout). Deadlocks persist,
	// which is exactly what the waits-for introspection (WaitsForEdges,
	// WaitsForDOT) needs for post-mortems; pair it with timeouts, as the
	// timeout-based systems of the paper's era did.
	PolicyNone
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyWaitDie:
		return "wait-die"
	case PolicyNone:
		return "none"
	}
	return "detect"
}

// ParsePolicy maps the -deadlock flag values of the daemons (detect,
// waitdie, none) to a Policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "detect":
		return PolicyDetect, nil
	case "waitdie":
		return PolicyWaitDie, nil
	case "none":
		return PolicyNone, nil
	}
	return PolicyDetect, fmt.Errorf("unknown deadlock policy %q (detect, waitdie, none)", name)
}

// Options configures a Manager.
type Options struct {
	// Sinks are the event consumers (e.g. an obs.Collector). Every grant,
	// wait, conversion, release, downgrade, withdrawal and deadlock-victim
	// event is delivered by the goroutine performing the operation AFTER all
	// manager latches have been released, so a sink may safely call back into
	// the manager. An operation's events go to each sink in attach order (all
	// of them to one consumer before the next, as one RecordBatch call where
	// the sink is a BatchSink); events of one operation arrive in order,
	// ordering across concurrent operations on different resources is
	// best-effort. Use AttachSink to add one after construction.
	Sinks []EventSink
	// Policy selects deadlock handling (default PolicyDetect).
	Policy Policy
	// DeadlockDefer is how long a waiter under PolicyDetect blocks before it
	// walks the waits-for graph from itself, on its own goroutine, and then
	// keeps waiting. Most waits are grant-bound and far shorter than any real
	// cycle's lifetime, so deferral removes the full graph walk from the
	// enqueue path. 0 picks the default (1ms); a negative value walks at once,
	// before the waiter parks.
	DeadlockDefer time.Duration
}

type heldLock struct {
	mode    Mode
	durable bool
	// order is the entry's grant sequence number of this lock
	// (GrantInfo.Seq); the transaction's (Held.Seq) lives in its lock list.
	order uint64
	// list is the generation of the lock list this slot is recorded in (see
	// heldList.gen).
	list uint64
	// since is the granting operation's start, kept only when that operation
	// was traced; it is the reference for the release event's hold duration.
	since time.Time
}

// waiter is one blocked lock request. Waiters are pooled (see entry.go):
// after creation its fields are written only by its owner before enqueue,
// and read by other actors only under the shard latch after proving the
// waiter current (queue membership or waits-for-record identity).
type waiter struct {
	txn     TxnID
	mode    Mode // target mode after conversion, if convert
	convert bool
	durable bool
	ready   chan error // buffered(1), reused across pool lives
	// done is set, under the shard latch, by whoever takes the waiter off
	// its queue with an outcome (a grant, a deadlock abort). The outcome
	// itself arrives on ready only after the resolving operation's events
	// are delivered, so a withdrawal that finds done set must wait for it
	// instead of withdrawing.
	done bool
	// gen is a globally unique stamp assigned on every checkout from the
	// pool. Pointer equality alone cannot prove a waits-for record current:
	// the pool may hand the SAME waiter address back to the same transaction
	// for its next blocked request (ABA), which would make abortWaiter
	// mistake a brand-new wait for the one a walk found on a cycle. Identity
	// checks therefore compare (pointer, gen).
	gen uint64
	// enq is the request's start time, kept only when the enqueuing
	// operation was traced; it is the reference for wait durations.
	enq time.Time
	// det is the owner's deadlock-check timer (Options.DeadlockDefer),
	// created on first use and kept across pool lives; await leaves it
	// stopped and drained.
	det *time.Timer
}

// Manager is a blocking multi-granularity lock manager over a sharded lock
// table. All methods are safe for concurrent use; see shard.go for the
// latch-ordering discipline.
//
// The fields are laid out by who writes them: a read-mostly header every
// request loads, then — a cache line further on — the one counter pair every
// grant and release writes, then what only the waiting, admission and
// introspection paths write. Per-request counters live in the table and txn
// stripes, never here; layout_test.go pins this.
type Manager struct {
	// Read-mostly: set by NewManager, or swapped by rare calls (AttachSink,
	// ConfigureAdmission, SetInjector) behind atomic pointers.
	opts    Options
	shards  []*tableShard
	mask    uint32
	txns    []*txnShard
	txnMask uint32
	// deferDur is the resolved Options.DeadlockDefer (0 = walk at once).
	deferDur time.Duration

	// sinks is the composed consumer list (Options.Sinks + AttachSink
	// additions); nil when tracing is off. Copy-on-write behind
	// an atomic pointer so the hot path pays one load.
	sinks atomic.Pointer[[]consumer]

	// admission is the gate configuration (nil = gate off); see
	// admission.go. Copy-on-write behind an atomic pointer so the conflict
	// path pays one load.
	admission atomic.Pointer[AdmissionConfig]

	// injector is the fault-injection hook (nil = none); swappable at
	// runtime via SetInjector.
	injector atomic.Pointer[Injector]

	_ linePad
	// size counts granted lock-table entries across all shards and high is
	// its high-water mark: exact on purpose (LockCount, Stats.MaxTableSize),
	// so every grant and release writes this line.
	size atomic.Int64
	high atomic.Int64
	_    linePad

	ids idTable
	wf  waitTable

	sheds       atomic.Uint64 // Begins shed + degrade-mode fast-fails
	admitDelays atomic.Uint64 // Admits that had to stall before passing
	degradedAcq atomic.Uint64 // acquires refused by degrade mode
	injected    atomic.Uint64 // synthetic failures injected

	// Deadlock detection (see deadlock.go): each blocked waiter runs its own
	// check after deferDur. walkMu lets one walk run at a time; the grant
	// path never takes it.
	walkMu       sync.Mutex
	deferredDet  atomic.Uint64 // waiters whose check was armed
	detectorRuns atomic.Uint64 // waits-for walks run
}

// NewManager returns an empty lock manager with a GOMAXPROCS-scaled number
// of lock-table stripes.
func NewManager(opts Options) *Manager { return newManager(opts, 0) }

// newManager is NewManager with n lock-table stripes: 0 picks the automatic
// GOMAXPROCS-scaled power of two (at least 16), other values are rounded up
// to a power of two. One stripe degenerates to the classic single-latch
// lock table. Tests set n to pin the stripe layout they exercise.
func newManager(opts Options, n int) *Manager {
	if n <= 0 {
		n = 8 * runtime.GOMAXPROCS(0)
		if n < 16 {
			n = 16
		}
	}
	if n > 1024 {
		n = 1024
	}
	n = nextPow2(n)
	m := &Manager{
		opts:    opts,
		shards:  make([]*tableShard, n),
		mask:    uint32(n - 1),
		txns:    make([]*txnShard, n),
		txnMask: uint32(n - 1),
	}
	m.ids.ids = make(map[Resource]ResID)
	shift := uint8(0)
	for 1<<shift < n {
		shift++
	}
	for i := 0; i < n; i++ {
		m.shards[i] = newTableShard(i, shift)
		m.txns[i] = newTxnShard()
	}
	m.wf.waiting = make(map[TxnID]waitRecord)
	m.deferDur = opts.DeadlockDefer
	if m.deferDur == 0 {
		m.deferDur = time.Millisecond
	} else if m.deferDur < 0 {
		m.deferDur = 0
	}
	for _, s := range opts.Sinks {
		m.AttachSink(s)
	}
	return m
}

// AttachSink adds an event consumer after construction. Safe for concurrent
// use; operations already past their sampling decision keep the consumer
// list they loaded.
func (m *Manager) AttachSink(s EventSink) {
	if s == nil {
		return
	}
	for {
		old := m.sinks.Load()
		var cs []consumer
		if old != nil {
			cs = append(cs, *old...)
		}
		cs = append(cs, batchOf(s))
		if m.sinks.CompareAndSwap(old, &cs) {
			return
		}
	}
}

// ShardOf returns the index of the lock-table stripe that serves r — the
// same value Event.Shard reports — or 0 for a name the manager has not
// interned. It adds nothing to the id space. Tracing layers use it to stamp
// spans with their lock-table stripe.
func (m *Manager) ShardOf(r Resource) int {
	id, _ := m.ids.lookup(r)
	return int(uint32(id) & m.mask)
}

func (m *Manager) shardFor(id ResID) *tableShard { return m.shards[uint32(id)&m.mask] }

func (m *Manager) txnShardFor(txn TxnID) *txnShard {
	return m.txns[uint32(txn)&m.txnMask]
}

// appendBlockers appends to dst the distinct transactions a request for
// target by txn queues behind when placed after the first `ahead` queue
// entries: incompatible holders plus incompatible earlier waiters. seen is
// the caller's dedup scratch (left dirty; the scratch pool clears it).
// Caller holds the shard latch. Allocation-free at steady state — the
// deadlock detector runs it on every walked edge.
func (e *entry) appendBlockers(dst []TxnID, seen map[TxnID]bool, txn TxnID, target Mode, ahead int) []TxnID {
	for i := range e.slots {
		t := e.slots[i].txn
		if t != txn && !compat[target][e.slots[i].h.mode] && !seen[t] {
			seen[t] = true
			dst = append(dst, t)
		}
	}
	if ahead > len(e.queue) {
		ahead = len(e.queue)
	}
	for _, w := range e.queue[:ahead] {
		if w.txn != txn && !compat[target][w.mode] && !seen[w.txn] {
			seen[w.txn] = true
			dst = append(dst, w.txn)
		}
	}
	return dst
}

// blockerTxns returns the blocker set as a fresh sorted slice — the escaping
// variant of appendBlockers for events and *LockError values. Caller holds
// the shard latch.
func (e *entry) blockerTxns(txn TxnID, target Mode, ahead int) []TxnID {
	sc := getBlockScratch()
	buf := e.appendBlockers(sc.out[:0], sc.seen, txn, target, ahead)
	sortTxnIDs(buf)
	var out []TxnID
	if len(buf) > 0 {
		out = append(out, buf...)
	}
	sc.out = buf[:0]
	putBlockScratch(sc)
	return out
}

// sortTxnIDs is an allocation-free insertion sort; blocker sets are small.
func sortTxnIDs(a []TxnID) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// queuedBlockers computes the blocker set for a waiter currently enqueued
// on r, so withdrawal and victim errors can report who the dead request was
// waiting behind. Caller holds the shard latch.
func (s *tableShard) queuedBlockers(id ResID, w *waiter) []TxnID {
	e := s.get(id)
	if e == nil {
		return nil
	}
	for i, q := range e.queue {
		if q == w {
			return e.blockerTxns(w.txn, w.mode, i)
		}
	}
	return nil
}

// AcquireOption customizes a single AcquireCtx or AcquireBatch request. It is
// a plain value: the With* constructors each set one field, a caller that
// already holds the settings as data fills in a literal, and several options
// given to one call are folded field by field (see foldOptions).
type AcquireOption struct {
	// Durable marks the request as a durable ("long") lock that survives
	// Snapshot/Restore (simulated shutdown); requesting a durable lock on a
	// resource already held non-durably makes the held lock durable.
	Durable bool
	// NoWait makes the request non-blocking: if it cannot be granted
	// immediately, AcquireCtx returns a *LockError wrapping ErrWouldBlock
	// instead of queueing.
	NoWait bool
	// Timeout withdraws the request after that long and returns a *LockError
	// wrapping ErrTimeout; <= 0 means no deadline. Useful in
	// workstation-server environments where blocking behind a days-long
	// check-out lock is not acceptable for interactive transactions.
	Timeout time.Duration
}

// foldOptions merges the options of one call: a flag set by any of them is
// set, the last positive timeout wins.
func foldOptions(opts []AcquireOption) AcquireOption {
	var cfg AcquireOption
	for _, o := range opts {
		cfg.Durable = cfg.Durable || o.Durable
		cfg.NoWait = cfg.NoWait || o.NoWait
		if o.Timeout > 0 {
			cfg.Timeout = o.Timeout
		}
	}
	return cfg
}

// WithDurable is AcquireOption{Durable: true}.
func WithDurable() AcquireOption { return AcquireOption{Durable: true} }

// WithNoWait is AcquireOption{NoWait: true}.
func WithNoWait() AcquireOption { return AcquireOption{NoWait: true} }

// WithTimeout is AcquireOption{Timeout: d}.
func WithTimeout(d time.Duration) AcquireOption { return AcquireOption{Timeout: d} }

// AcquireCtx is AcquireID on r's id.
func (m *Manager) AcquireCtx(ctx context.Context, txn TxnID, r Resource, mode Mode, opts ...AcquireOption) error {
	return m.AcquireID(ctx, txn, m.Intern(r), mode, opts...)
}

// AcquireID obtains (or converts to) a lock of at least the given mode on
// resource id for txn. Without options it blocks until the lock is granted,
// the context is done, or the transaction is chosen as a deadlock victim. A
// canceled or expired context withdraws the waiter (no queue entry is
// leaked) and returns a *LockError whose Cause is ctx.Err(), so
// errors.Is(err, context.Canceled) holds. All failures are reported as
// *LockError values wrapping one of the sentinel errors.
func (m *Manager) AcquireID(ctx context.Context, txn TxnID, id ResID, mode Mode, opts ...AcquireOption) error {
	if !mode.Valid() || mode == None {
		return fmt.Errorf("lock: invalid mode %v", mode)
	}
	cfg := foldOptions(opts)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return lockErr(txn, m.Name(id), mode, err)
	}
	if err := m.inject(ctx, txn, id, mode); err != nil {
		return err
	}

	tr := m.newTracer()
	s := m.shardFor(id)
	s.mu.Lock()
	s.stats.requests.Add(1)

	e := s.entryFor(id)
	target, convert, granted := m.tryGrant(tr, s, e, txn, id, mode, cfg.Durable)
	if granted {
		s.mu.Unlock()
		tr.finish()
		return nil
	}

	if cfg.NoWait {
		s.stats.conflicts.Add(1)
		blockers := e.blockerTxns(txn, target, len(e.queue))
		s.maybeDropEntry(id, e)
		s.mu.Unlock()
		tr.finish()
		return lockErrBlocked(txn, m.Name(id), mode, ErrWouldBlock, blockers)
	}

	// Graceful degradation: when the admission gate is saturated in degrade
	// mode, refuse to deepen the wait queues — fail fast with ErrShed (and
	// the blocker set, for restart-wait policies) instead of queueing, as if
	// the caller had passed WithNoWait. Conversions are exempt: the
	// transaction already holds the lock, and refusing an upgrade would only
	// force a full restart that re-acquires everything.
	if !convert && m.degradeSaturated() {
		s.stats.conflicts.Add(1)
		m.sheds.Add(1)
		m.degradedAcq.Add(1)
		blockers := e.blockerTxns(txn, target, len(e.queue))
		s.maybeDropEntry(id, e)
		if tr != nil {
			tr.add(KindShed, tr.start, txn, id, m.Name(id), target, s.idx).Blockers = blockers
		}
		s.mu.Unlock()
		tr.finish()
		return lockErrBlocked(txn, m.Name(id), mode, ErrShed, blockers)
	}

	if m.opts.Policy == PolicyWaitDie && e.mustDie(txn, target) {
		s.stats.conflicts.Add(1)
		s.stats.deadlocks.Add(1)
		// A wait-die victim never queues, so its victim event (and its
		// error) carries the blocker set directly — there is no prior wait
		// event, and restart-wait retry policies pause until these blockers
		// have drained.
		blockers := e.blockerTxns(txn, target, len(e.queue))
		s.maybeDropEntry(id, e)
		if tr != nil {
			ev := tr.add(KindVictim, tr.start, txn, id, m.Name(id), target, s.idx)
			ev.Blockers, ev.WaitDie = blockers, true
		}
		s.mu.Unlock()
		tr.finish()
		return lockErrBlocked(txn, m.Name(id), mode, ErrWaitDie, blockers)
	}

	// Enqueue a pooled waiter (entry.enqueue gives conversions the classic
	// conversion priority: after existing conversion waiters, ahead of plain
	// ones).
	w := getWaiter()
	w.txn, w.mode, w.convert, w.durable = txn, target, convert, cfg.Durable
	if tr != nil {
		w.enq = tr.start
	}
	pos := e.enqueue(w)
	m.wf.put(txn, waitRecord{res: id, w: w, gen: w.gen})
	s.stats.conflicts.Add(1)
	s.stats.waits.Add(1)
	if tr != nil {
		ev := tr.add(KindWait, time.Time{}, txn, id, m.Name(id), target, s.idx)
		ev.Blockers = e.blockerTxns(txn, target, pos)
	}
	s.mu.Unlock()
	tr.deliver()
	return m.await(ctx, cfg, tr, txn, id, w, mode, target)
}

// parkNotifyKey carries a park notification in a context (WithParkNotify).
type parkNotifyKey struct{}

// WithParkNotify returns a context carrying fn, the park notification of
// requests made under it: the manager calls fn on the requesting goroutine
// each time such a request is about to sleep — queued behind a conflicting
// lock (await) or stalled at the admission gate (Admit) — and never on a
// path that returns without waiting. fn runs with no latch held, before
// the goroutine blocks, and must not block itself. It lets a caller that
// multiplexes other work on the requesting goroutine (a server session's
// read loop) move that work elsewhere first; the request's outcome, stats
// and events are unaffected.
func WithParkNotify(ctx context.Context, fn func()) context.Context {
	return context.WithValue(ctx, parkNotifyKey{}, fn)
}

// notifyPark runs the context's park notification, if one is installed.
func notifyPark(ctx context.Context) {
	if fn, _ := ctx.Value(parkNotifyKey{}).(func()); fn != nil {
		fn()
	}
}

// await blocks on the waiter's ready channel, the context and the optional
// timeout, withdrawing the waiter on context/timeout expiry. It is the one
// place a lock request sleeps, hence where the park notification fires.
//
// Under PolicyDetect it also runs the request's deadlock check (did this
// wait close a cycle?): once, after DeadlockDefer, if the waiter is still
// blocked — or at once, before parking, when the deferral is negative — and
// then it keeps waiting. The check is armed before the park notification.
// Under wait-die no cycle can form (the young-waits-for-old edge was refused
// before enqueue); under PolicyNone the cycle is left in place for timeouts
// and introspection to deal with.
func (m *Manager) await(ctx context.Context, cfg AcquireOption, tr *tracer, txn TxnID, id ResID, w *waiter, mode, target Mode) error {
	var detC <-chan time.Time
	if m.opts.Policy == PolicyDetect {
		m.deferredDet.Add(1)
		switch {
		case m.deferDur == 0:
			m.detect(txn, w)
		case w.det == nil:
			w.det = time.NewTimer(m.deferDur)
			detC = w.det.C
		default:
			w.det.Reset(m.deferDur)
			detC = w.det.C
		}
	}
	notifyPark(ctx)
	var timerC <-chan time.Time
	if cfg.Timeout > 0 {
		timer := time.NewTimer(cfg.Timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	var err error
	for {
		select {
		case <-detC:
			detC = nil
			m.detect(txn, w)
			continue
		case err = <-w.ready:
		case <-ctx.Done():
			err = m.withdraw(tr, txn, id, w, mode, target, ctx.Err(), KindCancel)
		case <-timerC:
			err = m.withdraw(tr, txn, id, w, mode, target, ErrTimeout, KindTimeout)
		}
		break
	}
	// An armed check that has not fired is stopped, and a tick it sent but
	// nobody received is drained (go.mod's go 1.22 keeps the pre-1.23 timer
	// channel; under the newer rules Stop drains it and reports true).
	if detC != nil && !w.det.Stop() {
		<-w.det.C
	}
	putWaiter(w)
	tr.finish()
	return err
}

// BatchReq is one request of an AcquireBatch call.
type BatchReq struct {
	Resource Resource
	Mode     Mode
}

// IDReq is one request of an AcquireBatchID call.
type IDReq struct {
	ID   ResID
	Mode Mode
}

// AcquireBatch is AcquireBatchID on the requests' ids.
func (m *Manager) AcquireBatch(ctx context.Context, txn TxnID, reqs []BatchReq, opts ...AcquireOption) error {
	var buf [8]IDReq
	ids := buf[:0]
	for _, q := range reqs {
		ids = append(ids, IDReq{ID: m.Intern(q.Resource), Mode: q.Mode})
	}
	return m.AcquireBatchID(ctx, txn, ids, opts...)
}

// AcquireBatchID obtains locks for every request in reqs, in order, on behalf
// of txn. It exists for the protocol's root-to-leaf ancestor chains: instead
// of N AcquireCtx round-trips (N shard-latch acquisitions, N tracer
// decisions), the batch latches every involved stripe once — in ascending
// stripe-index order, the one multi-latch pattern the ordering discipline
// permits (see shard.go) — and grants all already-compatible requests under
// that single latch hold with one tracer flush.
//
// Because all involved stripes are latched before the first grant, the whole
// prefix of compatible requests is granted atomically: no concurrent
// transaction can observe (or create) a state between two of the batch's
// grants. Requests are processed in the given order, so the transaction's
// grant sequence numbers (Held.Seq) preserve the chain's root-to-leaf order.
//
// On the first request that cannot be granted immediately, the batch
// releases all latches, flushes the tracer, and falls back to the plain
// AcquireID wait path for that request and every later one — waiting,
// deadlock handling, timeouts and cancellation behave exactly as if the tail
// had been acquired one call at a time. Requests before the conflict stay
// granted (lock acquisition is not transactional; the caller's 2PL makes
// that safe). Options apply to every request in the batch.
//
// The whole batch is ONE operation for event sampling, like ReleaseAll.
func (m *Manager) AcquireBatchID(ctx context.Context, txn TxnID, reqs []IDReq, opts ...AcquireOption) error {
	if len(reqs) == 0 {
		return nil
	}
	for _, q := range reqs {
		if !q.Mode.Valid() || q.Mode == None {
			return fmt.Errorf("lock: invalid mode %v", q.Mode)
		}
	}
	cfg := foldOptions(opts)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return lockErr(txn, m.Name(reqs[0].ID), reqs[0].Mode, err)
	}
	if err := m.inject(ctx, txn, reqs[0].ID, reqs[0].Mode); err != nil {
		return err
	}
	ts := m.txnShardFor(txn)
	ts.batches.Add(1)
	tr := m.newTracer()

	// Collect the distinct stripe indices, ascending (insertion sort into a
	// small stack buffer; ancestor chains are short, so this beats a map),
	// keeping each request's stripe for the grant pass.
	var idxBuf, reqBuf [8]uint32
	idxs, stripe := idxBuf[:0], reqBuf[:0]
	for _, q := range reqs {
		si := uint32(q.ID) & m.mask
		stripe = append(stripe, si)
		pos := len(idxs)
		dup := false
		for i, v := range idxs {
			if v == si {
				dup = true
				break
			}
			if v > si {
				pos = i
				break
			}
		}
		if dup {
			continue
		}
		idxs = append(idxs, 0)
		copy(idxs[pos+1:], idxs[pos:])
		idxs[pos] = si
	}
	for _, si := range idxs {
		m.shards[si].mu.Lock()
	}

	// Grant pass. A request that conflicts is NOT counted against the shard
	// stats here — the fallback AcquireID call will do its own accounting —
	// so per-request counters stay exactly one-per-request either way.
	fast := 0 // requests granted under the latches: reqs[:fast]
	for i, q := range reqs {
		s := m.shards[stripe[i]]
		e := s.entryFor(q.ID)
		if _, _, granted := m.tryGrant(tr, s, e, txn, q.ID, q.Mode, cfg.Durable); !granted {
			// Conflict: drop the entry if this lookup speculatively created it,
			// and leave this request and the rest of the chain to the wait path.
			s.maybeDropEntry(q.ID, e)
			break
		}
		s.stats.requests.Add(1)
		fast++
	}
	for i := len(idxs) - 1; i >= 0; i-- {
		m.shards[idxs[i]].mu.Unlock()
	}
	ts.batchFast.Add(uint64(fast))
	tr.finish()
	if fast == len(reqs) {
		return nil
	}
	ts.batchFallbacks.Add(1)
	for _, q := range reqs[fast:] {
		if err := m.AcquireID(ctx, txn, q.ID, q.Mode, cfg); err != nil {
			return err
		}
	}
	return nil
}

// withdraw removes an expired or canceled waiter from its queue. A grant (or
// a deadlock abort) may have raced the expiry: the waiter is then already
// resolved (done) and that outcome, which arrives once its event has been
// delivered, is returned instead. The caller recycles the waiter.
func (m *Manager) withdraw(tr *tracer, txn TxnID, id ResID, w *waiter, mode, target Mode, cause error, kind EventKind) error {
	s := m.shardFor(id)
	s.mu.Lock()
	if w.done {
		s.mu.Unlock()
		return <-w.ready
	}
	blockers := s.queuedBlockers(id, w)
	s.removeWaiter(id, w)
	m.wf.delete(txn)
	if kind == KindTimeout {
		s.stats.timeouts.Add(1)
	} else {
		s.stats.cancels.Add(1)
	}
	if tr != nil {
		tr.add(kind, w.enq, txn, id, m.Name(id), target, s.idx).Blockers = blockers
	}
	// The withdrawn waiter may have been the FIFO barrier for later ones.
	m.grantWaitersLocked(tr, s, s.get(id), id)
	s.mu.Unlock()
	tr.deliver()
	return lockErrBlocked(txn, m.Name(id), mode, cause, blockers)
}

// tryGrant is the immediate-grant decision AcquireID and AcquireBatchID
// share. Caller holds s.mu and counts the request; e is id's entry. A
// durable request first makes a lock txn already holds on id durable. A held
// mode that covers the request answers it (a regrant); otherwise the request
// — a conversion to the supremum when txn holds a weaker mode — is granted
// if no other holder and no earlier waiter stands in its way. When it
// reports false nothing was granted, and target and convert describe the
// request to queue.
func (m *Manager) tryGrant(tr *tracer, s *tableShard, e *entry, txn TxnID, id ResID, mode Mode, durable bool) (target Mode, convert, granted bool) {
	own := None
	if h := e.holder(txn); h != nil {
		if durable && !h.durable {
			h.durable = true
			m.txnShardFor(txn).record(txn, id, h, false)
		}
		if h.mode.Covers(mode) {
			s.stats.regrants.Add(1)
			return h.mode, false, true
		}
		own, convert = h.mode, true
	}
	target = Sup(own, mode)
	granted, fastCheck := e.grantable(txn, own, target, convert)
	if fastCheck {
		s.stats.summaryFast.Add(1)
	}
	if granted {
		m.grantLocked(tr, s, e, txn, id, target, durable, convert, nil)
	}
	return target, convert, granted
}

// grantLocked installs (or converts) txn's lock on id. Caller holds s.mu;
// the trace event (if the operation is traced) is buffered on tr for
// delivery after unlock. w is the waiter granted, nil for an immediate
// grant: the latency reference is its enqueue time, else the request's
// start.
func (m *Manager) grantLocked(tr *tracer, s *tableShard, e *entry, txn TxnID, id ResID, mode Mode, durable, convert bool, w *waiter) {
	h := e.holder(txn)
	if h == nil {
		h = e.addHolder(txn)
		s.stats.grants.Add(1)
		n := m.size.Add(1)
		for {
			hi := m.high.Load()
			if n <= hi || m.high.CompareAndSwap(hi, n) {
				break
			}
		}
	} else {
		s.stats.conversions.Add(1)
	}
	e.setMode(h, mode)
	h.durable = h.durable || durable
	e.grants++
	h.order = e.grants
	m.txnShardFor(txn).record(txn, id, h, true)
	if tr != nil {
		kind := KindGrant
		if convert {
			kind = KindConvert
		}
		if h.since.IsZero() {
			// First traced grant of this hold: the hold-duration clock
			// starts at the granting operation's start (conversions keep the
			// original grant's).
			h.since = tr.start
		}
		ref := tr.start
		if w != nil {
			ref = w.enq
		}
		tr.add(kind, ref, txn, id, m.Name(id), mode, s.idx).Waited = w != nil
	}
}

// grantWaitersLocked scans the queue of e, id's entry (nil if it has none),
// front to back, granting every waiter that has become compatible.
// Conversions (kept at the front) may be granted even when a later plain
// waiter cannot; the scan stops at the first non-grantable plain waiter so
// that plain requests stay FIFO. Caller holds s.mu. Grant events for woken waiters ride on the waking operation's
// tracer (Dur measured from each waiter's own enqueue time), and so do their
// wake-ups: a traced operation wakes them after delivering those events.
func (m *Manager) grantWaitersLocked(tr *tracer, s *tableShard, e *entry, id ResID) {
	if e == nil {
		return
	}
	for progress := true; progress; {
		progress = false
		for i, w := range e.queue {
			own := None
			if w.convert { // a plain waiter cannot already hold (it would convert)
				own = e.holderMode(w.txn)
			}
			if e.compatGranted(own, w.mode) {
				e.dequeueAt(i)
				m.wf.delete(w.txn)
				m.grantLocked(tr, s, e, w.txn, id, w.mode, w.durable, w.convert, w)
				// From here the waiter belongs to the woken goroutine (which
				// will recycle it); it must not be touched again.
				w.done = true
				tr.wakeAfter(w, nil)
				progress = true
				break
			}
			if !w.convert {
				break // FIFO barrier for plain waiters
			}
		}
	}
	s.maybeDropEntry(id, e)
}

// DowngradeID atomically lowers txn's lock on id to a weaker mode (e.g.
// X→IX during de-escalation) and wakes any waiters the weaker mode is
// compatible with. Downgrading to None releases the lock. It is an error if
// txn holds no lock on id or if mode is not weaker than (or equal to) the
// held mode.
func (m *Manager) DowngradeID(txn TxnID, id ResID, mode Mode) error {
	tr := m.newTracer()
	s := m.shardFor(id)
	s.mu.Lock()
	e := s.get(id)
	var h *heldLock
	if e != nil {
		h = e.holder(txn)
	}
	if h == nil {
		s.mu.Unlock()
		tr.finish()
		return fmt.Errorf("lock: downgrade of unheld %q by txn %d", m.Name(id), txn)
	}
	if !h.mode.Covers(mode) {
		held := h.mode
		s.mu.Unlock()
		tr.finish()
		return fmt.Errorf("lock: %v on %q cannot be downgraded to %v", held, m.Name(id), mode)
	}
	if mode == None {
		m.releaseLocked(tr, s, e, txn, id, 0)
		s.mu.Unlock()
		tr.finish()
		return nil
	}
	e.setMode(h, mode)
	m.txnShardFor(txn).record(txn, id, h, false)
	s.stats.downgrades.Add(1)
	if tr != nil {
		tr.add(KindDowngrade, time.Time{}, txn, id, m.Name(id), mode, s.idx)
	}
	m.grantWaitersLocked(tr, s, e, id)
	s.mu.Unlock()
	tr.finish()
	return nil
}

// ReleaseID drops txn's lock on id (leaf-to-root early release). Releasing
// a resource that is not held is a no-op.
func (m *Manager) ReleaseID(txn TxnID, id ResID) {
	tr := m.newTracer()
	s := m.shardFor(id)
	s.mu.Lock()
	m.releaseLocked(tr, s, s.get(id), txn, id, 0)
	s.mu.Unlock()
	tr.finish()
}

// releaseLocked drops txn's granted lock on id (e is id's entry, nil if it
// has none) and wakes unblocked waiters, reporting whether a lock was actually
// dropped. Caller holds s.mu. swept is 0, or the generation of the lock list
// ReleaseAll has already taken out of the index: a slot recorded in that list
// needs no index delete. The release event reports the dropped mode and, when
// the grant was traced too, the hold duration.
func (m *Manager) releaseLocked(tr *tracer, s *tableShard, e *entry, txn TxnID, id ResID, swept uint64) bool {
	if e == nil {
		return false
	}
	h, ok := e.removeHolder(txn)
	if !ok {
		return false
	}
	if h.list != swept {
		m.txnShardFor(txn).remove(txn, id)
	}
	m.size.Add(-1)
	s.stats.releases.Add(1)
	if tr != nil {
		tr.add(KindRelease, h.since, txn, id, m.Name(id), h.mode, s.idx)
	}
	m.grantWaitersLocked(tr, s, e, id)
	return true
}

// ReleaseAll drops every lock held by txn (end of transaction). Any granted
// waiters are woken. The transaction's lock list is taken out of the held
// index in one step and then swept — release cost is proportional to the
// locks held, not to the table size, with no per-lock index delete — and goes
// back to the pool afterwards. The whole call is ONE operation for event
// sampling — a single tracer covers every released lock, so a 64-lock EOT
// pays one sampling decision, not 64 — and events are delivered after all
// shard latches have been dropped. When the sweep released anything and the
// operation is traced, the per-lock release events are followed by one
// "release-all" summary event whose Dur times the sweep. The summary names
// no resource: the release events of the same round already name every lock
// the sweep dropped — what a dying deadlock victim gave up.
func (m *Manager) ReleaseAll(txn TxnID) {
	tr := m.newTracer()
	l := m.txnShardFor(txn).detach(txn)
	if l == nil {
		tr.finish()
		return
	}
	released := false
	for _, slot := range l.m.slots {
		if slot.key == 0 {
			continue
		}
		id := slot.key - 1
		s := m.shardFor(id)
		s.mu.Lock()
		if m.releaseLocked(tr, s, s.get(id), txn, id, l.gen) {
			released = true
		}
		s.mu.Unlock()
	}
	if released && tr != nil {
		tr.add(KindReleaseAll, tr.start, txn, 0, "", None, 0)
	}
	tr.finish()
	putHeldList(l)
}

// HeldCoversID reports whether txn already holds id in a mode covering mode
// — durably, if durable is set. It is the protocol's fast path: answered
// from txn's lock list under the txn-shard latch alone, it takes no
// table-shard latch, counts no request and emits no event. The list changes
// under the latch of id's table shard with the holder slot itself, so a true
// answer is what AcquireID's regrant branch would have found; it is only
// ever stale the safe way (a transaction whose list ReleaseAll has taken
// misses).
func (m *Manager) HeldCoversID(txn TxnID, id ResID, mode Mode, durable bool) bool {
	ts := m.txnShardFor(txn)
	ts.mu.Lock()
	var h listedLock
	if l := ts.held[txn]; l != nil {
		h, _ = l.m.Get(id)
	}
	ts.mu.Unlock()
	return h.mode != None && h.mode.Covers(mode) && (!durable || h.durable)
}

// HeldModeID returns the mode txn currently holds on id (None if unheld).
func (m *Manager) HeldModeID(txn TxnID, id ResID) Mode {
	s := m.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.get(id); e != nil {
		return e.holderMode(txn)
	}
	return None
}

// HeldLocks returns all locks currently held by txn, in acquisition order,
// read from its lock list.
func (m *Manager) HeldLocks(txn TxnID) []Held {
	out := []Held{}
	ts := m.txnShardFor(txn)
	ts.mu.Lock()
	if l := ts.held[txn]; l != nil {
		out = make([]Held, 0, l.m.Len())
		for _, slot := range l.m.slots {
			if h := slot.val; slot.key != 0 {
				out = append(out, Held{Resource: m.Name(slot.key - 1), Mode: h.mode, Durable: h.durable, Seq: h.seq})
			}
		}
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// LockCount returns the number of granted lock-table entries (across all
// transactions and shards). It reads an atomic counter and takes no latch.
func (m *Manager) LockCount() int {
	return int(m.size.Load())
}

// Stats returns the manager's counters, aggregated lock-free across the
// table and txn stripes' atomic counters.
func (m *Manager) Stats() Stats {
	var st Stats
	for _, s := range m.shards {
		s.stats.addTo(&st)
	}
	for _, ts := range m.txns {
		st.Batches += ts.batches.Load()
		st.BatchFastGrants += ts.batchFast.Load()
		st.BatchFallbacks += ts.batchFallbacks.Load()
	}
	st.Sheds = m.sheds.Load()
	st.AdmitDelays = m.admitDelays.Load()
	st.DegradedAcquires = m.degradedAcq.Load()
	st.InjectedFaults = m.injected.Load()
	st.DeferredDetections = m.deferredDet.Load()
	st.DetectorRuns = m.detectorRuns.Load()
	st.MaxTableSize = int(m.high.Load())
	return st
}

// Close does nothing: the manager owns no goroutine (each blocked request
// runs its own deadlock check) and the lock table needs no teardown. It
// stays so that code which closes what it opens keeps compiling.
func (m *Manager) Close() {}
