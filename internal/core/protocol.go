package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/trace"
)

// Protocol implements the paper's lock protocol for object-specific lock
// graphs (§4.4.2), rules 1–5 plus the authorization-aware rule 4′:
//
//   - IS/IX on a non-root node requires (at least) IS/IX on all immediate
//     parents; requesting a lock acquires the whole ancestor chain
//     root-to-leaf (rule 5).
//   - Locking the root of an inner unit (an entry point) triggers implicit
//     upward propagation: the concurrency-control manager intention-locks
//     the entry point's immediate parents up to the root of its superunit.
//   - Granting S or X on a node first S/X-locks the entry points of all
//     lower (dependent) inner units accessible via the node — implicit
//     downward propagation, which makes locks on shared data visible to
//     transactions arriving "from the side".
//   - Rule 4′: during downward propagation of an X request, inner units the
//     transaction is not authorized to modify are locked S instead of X.
//
// The protocol issues only the paper's four modes (IS, IX, S, X).
type Protocol struct {
	nm   *Namer
	mgr  *lock.Manager
	auth authz.Authorizer

	// rule4Prime enables the authorization cooperation of rule 4′. With it
	// disabled (or with an AllowAll authorizer) the protocol behaves as the
	// plain rule 4: X requests propagate X onto every dependent entry
	// point.
	rule4Prime bool

	// tr, when non-nil, records a span tree per user-level Lock call: the
	// root span is the call itself, children are the protocol's rule
	// applications (upward intention locks, downward propagations, the node
	// acquisition). It adds spans only; the manager calls are the same.
	tr *trace.Recorder

	// fast enables the fast path (DESIGN.md §11): an IS/IX request the
	// transaction's lock list already covers (Manager.HeldCoversID) skips the
	// manager. What is left of a chain goes to it as one batch either way.
	fast bool

	// onFastHit, when set, is notified once per fast-path hit. Hits never
	// reach the lock manager's request path, so they are invisible to its
	// event sinks; rate monitors hook here instead. See OnFastPathHit.
	onFastHit atomic.Pointer[func()]

	// counters tallies rule applications, striped by transaction; see
	// ProtocolStats. Everything above is read-mostly and every lock call
	// loads it, so the stripes' pads keep the counter writes off its cache
	// lines, and the trailing pad keeps the last stripe off the next heap
	// object's.
	counters protoCounters
	_        linePad
}

// Options configures a Protocol.
type Options struct {
	// Authorizer supplies modify rights for rule 4′. nil defaults to
	// authz.AllowAll (every unit is modifiable).
	Authorizer authz.Authorizer
	// Rule4Prime enables authorization cooperation (§4.4.2.1, rule 4′).
	Rule4Prime bool
	// Tracer, when non-nil, records per-transaction span trees for every
	// user-level lock call (see internal/trace).
	Tracer *trace.Recorder
	// DisableFastPath turns off the held-lock-list shortcut: every request
	// the call's own memo does not cover reaches the manager, so the paper's
	// request counts stay measurable (internal/experiments). Chains are
	// batched either way; see DESIGN.md §11.
	DisableFastPath bool
}

// NewProtocol builds a protocol instance over a lock manager, a store and a
// namer, binding the namer to the manager's resource id space and to the
// store its entry-point memos describe. A namer serves one manager and one
// store: NewProtocol panics if nm is already bound to another of either.
func NewProtocol(mgr *lock.Manager, st *store.Store, nm *Namer, opts Options) *Protocol {
	auth := opts.Authorizer
	if auth == nil {
		auth = authz.AllowAll{}
	}
	nm.bind(mgr, st)
	return &Protocol{nm: nm, mgr: mgr, auth: auth, rule4Prime: opts.Rule4Prime, tr: opts.Tracer, fast: !opts.DisableFastPath}
}

// Manager exposes the underlying lock manager (for release, inspection and
// statistics).
func (p *Protocol) Manager() *lock.Manager { return p.mgr }

// Tracer exposes the span recorder (nil when tracing is off).
func (p *Protocol) Tracer() *trace.Recorder { return p.tr }

// OnFastPathHit registers fn to run once per fast-path hit, on the
// requesting goroutine with no protocol or manager locks held. One hook
// slot: a second call replaces the first. fn must be cheap (an atomic add) —
// it sits on the hottest path the fast path exists to keep short.
func (p *Protocol) OnFastPathHit(fn func()) {
	if fn == nil {
		return
	}
	p.onFastHit.Store(&fn)
}

// noteFastPathHit tallies one request the lock list answered and notifies
// the hook.
func (p *Protocol) noteFastPathHit(c *call) {
	c.ctr.fastPathHits.Add(1)
	if f := p.onFastHit.Load(); f != nil {
		(*f)()
	}
}

// CanModify reports whether the authorization component grants txn the
// right to modify the relation. The query executor enforces it for
// modifying statements; the protocol itself only uses it for rule 4′.
func (p *Protocol) CanModify(txn lock.TxnID, relation string) bool {
	return p.auth.CanModify(txn, relation)
}

// Lock acquires a lock of the given mode (IS, IX, S or X) on the node,
// following the protocol. It blocks until granted; a deadlock-victim error
// from the lock manager is returned unchanged and the transaction must
// abort.
func (p *Protocol) Lock(txn lock.TxnID, n Node, mode lock.Mode) error {
	return p.LockWith(context.Background(), txn, n, mode, false, false, 0)
}

// LockPath is shorthand for Lock on a data node.
func (p *Protocol) LockPath(txn lock.TxnID, path store.Path, mode lock.Mode) error {
	return p.Lock(txn, DataNode(path), mode)
}

// LockWith is the unified acquisition entry point: one call expressing
// every option combination; Lock is its all-defaults point and the txn
// layer's variadic-option Lock builds directly on it.
//
//   - ctx: a canceled or expired context withdraws the blocked lock-manager
//     waiter and returns its error. Locks already acquired for earlier nodes
//     of the protocol chain are NOT rolled back — the transaction must abort,
//     exactly as after a deadlock victim error.
//   - durable: "long" locks, as used for check-out in workstation–server
//     environments.
//   - noFollow: no implicit downward propagation into referenced common
//     data. It exploits query semantics (§4.5 end): an operation that
//     accesses references without accessing the referenced data — e.g.
//     deleting a robot by a transaction without the right to delete
//     effectors — needs "no locks on common data at all". The caller must
//     guarantee the operation really never touches the referenced data.
//   - timeout > 0: every lock-manager acquisition of the chain is withdrawn
//     after that long, returning an error wrapping lock.ErrTimeout. Per
//     acquisition, not per call — the workstation-server "don't block
//     forever behind a check-out lock" knob, and the trigger for automatic
//     timeout incident dumps.
func (p *Protocol) LockWith(ctx context.Context, txn lock.TxnID, n Node, mode lock.Mode, durable, noFollow bool, timeout time.Duration) error {
	ctr := p.counters.of(txn)
	ctr.requests.Add(1)
	if noFollow {
		ctr.noFollow.Add(1)
	}
	switch mode {
	case lock.IS, lock.IX, lock.S, lock.X:
	default:
		return fmt.Errorf("core: protocol mode must be IS, IX, S or X, got %v", mode)
	}
	c := callPool.Get().(*call)
	c.ctx, c.txn, c.opt, c.noFollow, c.ctr = ctx, txn, lock.AcquireOption{Durable: durable, Timeout: timeout}, noFollow, ctr
	defer func() {
		c.requested.Clear()
		c.ctx, c.ctr = nil, nil
		callPool.Put(c)
	}()
	// resolve also validates a data path against the schema: instances need
	// not exist (inserts lock their future resource), but the attribute
	// shape must be real.
	e, err := p.nm.resolve(n)
	if err != nil {
		return err
	}
	return p.lockEntry(c, n, e, mode, "", trace.SpanHandle{})
}

// call carries one LockWith request through the protocol's fan-out: every
// lock it takes — intention locks up a chain, S/X down into common data —
// goes to the manager with the same context, transaction and options.
// Pooled: put back with its memo cleared and no caller context.
type call struct {
	ctx      context.Context
	txn      lock.TxnID
	opt      lock.AcquireOption
	noFollow bool
	// ctr is the transaction's stripe of the protocol's counters.
	ctr *protoStripe
	// requested holds the strongest mode handled per resource in this call,
	// so that diamond-shaped sharing does not reprocess entry points.
	requested lock.IDMap[lock.Mode]
}

// memo records mode as handled for id in this call.
func (c *call) memo(id lock.ResID, mode lock.Mode) {
	prev, _ := c.requested.Get(id)
	c.requested.Put(id, lock.Sup(prev, mode))
}

var callPool = sync.Pool{New: func() any { return new(call) }}

// lockEntry locks node n, whose resolved name entry is e, under the
// protocol. kind is "" for the node the caller named (the root span) and
// "downward" for an entry point reached by propagation, which rule 4′ may
// weaken to S ("downward-rule4prime"); its span parents the recursion's
// spans: the tree mirrors the propagation.
func (p *Protocol) lockEntry(c *call, n Node, e *nameEntry, mode lock.Mode, kind string, sp trace.SpanHandle) (err error) {
	if kind != "" {
		if mode == lock.X && p.rule4Prime && !p.auth.CanModify(c.txn, n.Path.Relation()) {
			// Rule 4′: non-modifiable inner units are only S-locked.
			mode, kind = lock.S, "downward-rule4prime"
			c.ctr.rule4Weakened.Add(1)
		}
		c.ctr.downward.Add(1)
	}
	res := e.res
	if kind == "" {
		if p.tr != nil {
			sp = p.tr.Start(c.txn, "lock", res, mode)
			defer func() { sp.End(err) }()
		}
	} else if sp.Recording() {
		sp = sp.Child(kind, res, mode)
		defer func() { sp.EndAtLast(err) }()
	}
	if prev, ok := c.requested.Get(e.id); ok && prev.Covers(mode) {
		c.ctr.memoHits.Add(1)
		return nil
	}
	// Rules 3/4/4′, downward part: before granting S or X on the node, lock
	// the entry points of all lower (dependent) inner units accessible via
	// it. The schema rules a reference out below most data nodes (their type
	// has no ref plan): those need no scan, before the grant or after it, so
	// the node's lock joins its ancestors' batch, as IS/IX and noFollow S/X
	// do. Only a scanning node's own S/X waits for its downward step.
	follow := (mode == lock.S || mode == lock.X) && !c.noFollow
	scan := follow && (n.Level != LevelData || e.typ.RefPlan() != nil)

	// Rules 1–4, upward part: intention-lock all immediate parents
	// root-to-leaf (rule 5 order). For entry points this is the "implicit
	// upward propagation" up to the root of the superunit; it never crosses
	// superunit boundaries because the ancestor chain is exactly the
	// superunit spine.
	if err := p.chain(c, e, mode, !scan, sp); err != nil {
		return err
	}
	if follow {
		c.ctr.entryScans.Add(1)
	}
	if !scan {
		return nil
	}

	// Reserve the mode in the memo BEFORE propagating: with recursive
	// complex objects a reference cycle leads back to this node, and the
	// reservation terminates the recursion (the cycle member is then locked
	// on the way back up).
	c.memo(e.id, mode)

	// Downward propagation crosses superunit boundaries and recurses,
	// because common data may again contain common data. The database, a
	// segment, a relation or a data node with a ref plan takes its entry
	// points, resolved, from its scan memo (Namer.entryPoints), and epsAt, a
	// store version at which they were the entry points.
	eps, epsAt, err := p.nm.entryPoints(n, e)
	if err != nil {
		return err
	}
	for _, ep := range eps {
		if err := p.lockEntry(c, DataNode(ep.path), ep, mode, "downward", sp); err != nil {
			return err
		}
	}

	// Final acquire on the node itself: S/X always goes to the manager, whose
	// held-covers regrant path answers a repeat, so every S/X request stays
	// visible in Stats.Requests and the events.
	a := sp.Child("acquire", res, mode)
	err = p.mgr.AcquireID(c.ctx, c.txn, e.id, mode, c.opt)
	a.End(err)
	if err != nil {
		return err
	}
	c.ctr.nodeLocks.Add(1)

	// The scan ran before the grant, and the request may have waited in
	// between: a transaction holding X below the node could add a reference
	// and commit meanwhile. Such a writer held IX on the node until after its
	// write moved the store version, so while the version is still the one
	// the entry points were found at they are all there are. Otherwise take
	// them again now that the grant keeps writers out, and lock what the
	// previous list lacked, until nothing new turns up.
	for late := true; late && p.nm.st.Version() != epsAt; {
		prev := eps
		if eps, epsAt, err = p.nm.entryPoints(n, e); err != nil {
			return err
		}
		late = false
		for _, ep := range eps {
			if _, seen := slices.BinarySearchFunc(prev, ep, cmpEntryPoint); seen {
				continue
			}
			late = true
			c.ctr.lateEntries.Add(1)
			if err := p.lockEntry(c, DataNode(ep.path), ep, mode, "downward", sp); err != nil {
				return err
			}
		}
	}
	return nil
}

// chain is the one routine that sends chain requests to the manager: an
// intent request for each ancestor of e neither the call's memo nor (with
// the fast path on) the lock list covers and, when withNode is set (no
// downward scan precedes the node's lock), the node's own lock go to it root
// to leaf as ONE Manager.AcquireBatchID. The steady state — everything
// already held — makes zero manager requests and zero allocations. A
// recording sp gets one finished child per request the manager got to
// ("upward" for an ancestor, "acquire" for the node), all sharing the
// batch's start and end.
func (p *Protocol) chain(c *call, e *nameEntry, mode lock.Mode, withNode bool, sp trace.SpanHandle) error {
	// Stack buffer: a chain (database, segment, relation, object and four
	// levels below it) fits; a deeper one spills to the heap.
	var buf [8]lock.IDReq
	reqs, intent := buf[:0], mode.IntentionFor()
	for _, aid := range e.ancID {
		if prev, ok := c.requested.Get(aid); ok && prev.Covers(intent) {
			c.ctr.memoHits.Add(1)
			continue
		}
		if p.fast && p.mgr.HeldCoversID(c.txn, aid, intent, c.opt.Durable) {
			// Deliberately NOT folded into requested: the lock list answers
			// any later encounter the memo would, and skipping the map write
			// keeps the steady state free of per-call map traffic.
			p.noteFastPathHit(c)
			continue
		}
		reqs = append(reqs, lock.IDReq{ID: aid, Mode: intent})
	}
	upward := len(reqs)
	if withNode {
		// Only IS/IX node locks may be served from the lock list: noFollow S/X
		// is rare, and going to the manager keeps every S/X request visible in
		// Stats.Requests and the events.
		if p.fast && mode.IsIntention() && p.mgr.HeldCoversID(c.txn, e.id, mode, c.opt.Durable) {
			p.noteFastPathHit(c)
		} else {
			reqs = append(reqs, lock.IDReq{ID: e.id, Mode: mode})
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	err := p.mgr.AcquireBatchID(c.ctx, c.txn, reqs, c.opt)
	if sp.Recording() {
		batchSpans(p.mgr, sp, reqs, upward, err)
	}
	if err != nil {
		return err
	}
	c.ctr.batchedLocks.Add(uint64(len(reqs)))
	c.ctr.upwardLocks.Add(uint64(upward))
	if len(reqs) > upward {
		c.ctr.nodeLocks.Add(1)
	}
	for _, q := range reqs {
		c.memo(q.ID, q.Mode)
	}
	return nil
}

// batchSpans records the children of one AcquireBatchID call, all over the
// call's one Lap, naming each request's resource through mgr. The batch
// stops at the first request that fails and its *lock.LockError names that
// request's resource: the requests before it end clean, that one carries the
// error, and the ones after it were never made and get no span.
func batchSpans(mgr *lock.Manager, sp trace.SpanHandle, reqs []lock.IDReq, upward int, err error) {
	start, end := sp.Lap()
	var failed lock.Resource
	if err != nil {
		var le *lock.LockError
		if errors.As(err, &le) {
			failed = le.Resource
		}
	}
	for i, q := range reqs {
		kind := "upward"
		if i >= upward {
			kind = "acquire"
		}
		res := mgr.Name(q.ID)
		if err != nil && res == failed {
			sp.ChildDone(kind, res, q.Mode, start, end, err)
			return
		}
		sp.ChildDone(kind, res, q.Mode, start, end, nil)
	}
}

// Release drops all locks of a transaction (EOT, rule 5: "locks are
// released at the end of the transaction ... in any order").
func (p *Protocol) Release(txn lock.TxnID) { p.mgr.ReleaseAll(txn) }

// EffectiveMode returns the strongest mode the transaction holds on a node,
// explicitly or implicitly: an S or X lock on any node implicitly locks its
// descendants in the same mode (§3.1). Because resource names are the
// immediate-parent chains, implicit coverage is prefix coverage.
func (p *Protocol) EffectiveMode(txn lock.TxnID, n Node) (lock.Mode, error) {
	e, err := p.nm.resolve(n)
	if err != nil {
		return lock.None, err
	}
	best := p.mgr.HeldModeID(txn, e.id)
	for _, aid := range e.ancID {
		switch p.mgr.HeldModeID(txn, aid) {
		case lock.S:
			best = lock.Sup(best, lock.S)
		case lock.X:
			best = lock.Sup(best, lock.X)
		case lock.SIX:
			best = lock.Sup(best, lock.S)
		}
	}
	return best, nil
}
