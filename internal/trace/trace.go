// Package trace is the per-transaction tracing subsystem: span trees for
// protocol lock calls, an always-on flight recorder of recent spans, and
// blocked-time contention profiles.
//
// The aggregate telemetry in package obs answers "how slow are locks on
// average"; this package answers "what did THIS transaction go through".
// One user-level Lock call on a complex object fans out — the protocol
// intention-locks the ancestor chain (rules 1–5), propagates implicitly
// upward above entry points and downward into referenced inner units
// (§4.4.2) — and each of those implicit acquisitions becomes a child span
// under the call's root span, carrying resource, mode, lockable-unit kind,
// lock-table shard and wall-clock timing.
//
// Recording a span is one append of a compact record to the transaction's
// own buffer (transactions are single threads of execution, so the append
// is uncontended; a leaf mutex guards it only against concurrent readers);
// what a Span adds to the record is derived where spans leave the
// recorder: SpansOf copies a live transaction's buffer, Recent reads the
// flight recorder, and incident dumps embed both. The clock is read once
// per call boundary — a root span's start and end, the end of each
// lock-manager call — and children open at the last reading, so the spans
// of one call tile its interval.
//
// Recording allocates nothing at steady state: a transaction's buffer is
// looked up once per root span and travels in the SpanHandle, and buffers —
// record slices included — are recycled across transactions. The price is
// a lifetime rule: a SpanHandle dies with its transaction's FinishTxn (a
// late End is ignored).
package trace

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/lock"
	"colock/internal/obs"
)

// Span is one node of a transaction's trace tree. The root span of a tree
// (Parent == 0) is a user-level protocol Lock/LockPath call; child spans are
// the protocol's rule applications: "upward" for an implicit intention lock
// on an ancestor, "downward" (or "downward-rule4prime" when authorization
// demoted X to S) for an implicit propagation into a dependent inner unit,
// and "acquire" for the lock-manager acquisition on the requested node
// itself.
type Span struct {
	Txn      lock.TxnID    `json:"txn"`
	ID       uint64        `json:"id"`               // per-transaction, 1-based
	Parent   uint64        `json:"parent,omitempty"` // 0 for root spans
	Kind     string        `json:"kind"`
	Resource lock.Resource `json:"resource"`
	Mode     string        `json:"mode"`
	Unit     string        `json:"unit,omitempty"` // lockable-unit kind
	Shard    int           `json:"shard"`
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur_ns"`
	Err      string        `json:"err,omitempty"`
	// Open marks a span still in flight — visible only in incident dumps
	// taken while the operation is blocked or unwinding.
	Open bool `json:"open,omitempty"`
}

// maxRetained bounds the flight recorder: the buffers of finished
// transactions it keeps hold at most this many spans in all.
const maxRetained = 4096

// Options configures a Recorder.
type Options struct {
	// KindOf classifies a resource into a lockable-unit kind label for the
	// span's Unit field; nil labels it by path depth, with the
	// obs.DefaultKinds label obs.DepthKindOf picks.
	KindOf func(lock.Resource) string
	// ShardOf maps a resource to its lock-table stripe (wire it to
	// lock.Manager.ShardOf); nil stamps shard 0.
	ShardOf func(lock.Resource) int
}

// record is one span as a transaction's buffer holds it: what the locking
// path knows, nothing derived.
type record struct {
	kind   string
	res    lock.Resource
	err    error
	start  time.Duration // on the recorder's clock
	dur    time.Duration
	parent uint32
	mode   lock.Mode
	open   bool
}

// txnTrace is one transaction's span buffer. The owning transaction is a
// single thread of execution, so appends never contend; the mutex exists
// for concurrent readers (incident dumps, /trace/spans). Buffers are pooled:
// gen counts the buffer's lives, so a handle from an earlier life is
// recognised and ignored.
type txnTrace struct {
	txn  lock.TxnID
	mu   sync.Mutex
	gen  uint32
	last time.Duration // the transaction's latest clock reading
	recs []record      // span IDs are index+1
	next *txnTrace     // the next newer buffer, while the flight recorder keeps this one
}

var txnTracePool = sync.Pool{New: func() any { return new(txnTrace) }}

// recycle empties a buffer no reader can reach any more and pools it.
func recycle(tt *txnTrace) {
	tt.mu.Lock()
	clear(tt.recs)
	tt.recs = tt.recs[:0]
	tt.next = nil
	tt.mu.Unlock()
	txnTracePool.Put(tt)
}

// txnBufShard is one stripe of the per-transaction buffer registry. n
// mirrors len(buf) so FinishTxn on a transaction that recorded nothing can
// bail out on one atomic load without taking the mutex.
type txnBufShard struct {
	mu  sync.Mutex
	n   atomic.Int64
	buf map[lock.TxnID]*txnTrace
}

// Recorder records span trees. All methods are safe for concurrent use.
type Recorder struct {
	kindOf  func(lock.Resource) string
	shardOf func(lock.Resource) int
	epoch   time.Time

	shards []*txnBufShard
	mask   uint32

	// The flight recorder: finished transactions' buffers, oldest first,
	// linked through txnTrace.next and holding finSpans spans in all.
	finMu            sync.Mutex
	finHead, finTail *txnTrace
	finSpans         int
}

// NewRecorder builds a recorder.
func NewRecorder(opts Options) *Recorder {
	kindOf := opts.KindOf
	if kindOf == nil {
		kindOf = func(r lock.Resource) string { return obs.DefaultKinds[obs.DepthKindOf(r)] }
	}
	shardOf := opts.ShardOf
	if shardOf == nil {
		shardOf = func(lock.Resource) int { return 0 }
	}
	const nShards = 64
	r := &Recorder{
		kindOf:  kindOf,
		shardOf: shardOf,
		epoch:   time.Now(),
		shards:  make([]*txnBufShard, nShards),
		mask:    nShards - 1,
	}
	for i := range r.shards {
		r.shards[i] = &txnBufShard{buf: make(map[lock.TxnID]*txnTrace)}
	}
	return r
}

// now reads the recorder's clock: the monotonic time since its epoch.
func (r *Recorder) now() time.Duration { return time.Since(r.epoch) }

// bufFor returns txn's span buffer and its current life, taking a buffer
// from the pool on the transaction's first traced call.
func (r *Recorder) bufFor(txn lock.TxnID) (*txnTrace, uint32) {
	s := r.shards[uint32(txn)&r.mask]
	s.mu.Lock()
	tt := s.buf[txn]
	if tt == nil {
		tt = txnTracePool.Get().(*txnTrace)
		tt.txn = txn
		s.buf[txn] = tt
		s.n.Add(1)
	}
	// Reading gen under the registry mutex is ordered before the next
	// FinishTxn's increment, which follows its unregistration under it.
	gen := tt.gen
	s.mu.Unlock()
	return tt, gen
}

// SpanHandle identifies an in-flight span. The zero handle is inert: Child
// and End on it are no-ops, so call sites need no tracing guards. A handle
// is a small value (copy it freely) and is dead once its transaction's
// FinishTxn has run: Child and End on a dead handle record nothing.
type SpanHandle struct {
	rec *Recorder
	tt  *txnTrace
	idx int32
	gen uint32
}

// Recording reports whether the handle belongs to a traced call (false for
// the zero handle).
func (h SpanHandle) Recording() bool { return h.tt != nil }

// Start opens a root span for a user-level lock call at a fresh clock
// reading; on a nil recorder it returns the zero handle.
func (r *Recorder) Start(txn lock.TxnID, kind string, res lock.Resource, mode lock.Mode) SpanHandle {
	if r == nil {
		return SpanHandle{}
	}
	tt, gen := r.bufFor(txn)
	return r.open(tt, gen, 0, true, kind, res, mode)
}

// Child opens a span under h at the transaction's last clock reading. Inert
// on the zero handle.
func (h SpanHandle) Child(kind string, res lock.Resource, mode lock.Mode) SpanHandle {
	if h.tt == nil {
		return SpanHandle{}
	}
	return h.rec.open(h.tt, h.gen, uint32(h.idx)+1, false, kind, res, mode)
}

// open appends an open span to tt if it is still in life gen, starting at
// the transaction's last reading — after taking a fresh one, if asked.
func (r *Recorder) open(tt *txnTrace, gen, parent uint32, fresh bool, kind string, res lock.Resource, mode lock.Mode) SpanHandle {
	var now time.Duration
	if fresh {
		now = r.now()
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.gen != gen {
		return SpanHandle{}
	}
	if fresh {
		tt.last = now
	}
	tt.recs = append(tt.recs, record{kind: kind, res: res, start: tt.last, parent: parent, mode: mode, open: true})
	return SpanHandle{rec: r, tt: tt, idx: int32(len(tt.recs) - 1), gen: gen}
}

// End closes the span at a fresh clock reading — the end of a root span or
// of its manager call — which becomes the transaction's last reading.
func (h SpanHandle) End(err error) {
	if h.tt != nil {
		h.end(true, err)
	}
}

// EndAtLast closes the span at the transaction's last clock reading — the
// end of the last manager call made under it — without reading the clock.
func (h SpanHandle) EndAtLast(err error) {
	if h.tt != nil {
		h.end(false, err)
	}
}

func (h SpanHandle) end(fresh bool, err error) {
	var now time.Duration
	if fresh {
		now = h.rec.now()
	}
	tt := h.tt
	tt.mu.Lock()
	if tt.gen == h.gen {
		if fresh {
			tt.last = now
		}
		rc := &tt.recs[h.idx]
		rc.dur, rc.err, rc.open = tt.last-rc.start, err, false
	}
	tt.mu.Unlock()
}

// Lap reads the clock at the end of a manager call made under h and returns
// the call's bounds: from the transaction's last reading to this new one.
func (h SpanHandle) Lap() (start, end time.Duration) {
	tt := h.tt
	if tt == nil {
		return 0, 0
	}
	now := h.rec.now()
	tt.mu.Lock()
	if tt.gen == h.gen {
		start, end = tt.last, now
		tt.last = now
	}
	tt.mu.Unlock()
	return start, end
}

// ChildDone records under h a finished span from start to end: the way to
// give each request of one batched manager call a span over the call's Lap.
func (h SpanHandle) ChildDone(kind string, res lock.Resource, mode lock.Mode, start, end time.Duration, err error) {
	tt := h.tt
	if tt == nil {
		return
	}
	tt.mu.Lock()
	if tt.gen == h.gen {
		tt.recs = append(tt.recs, record{kind: kind, res: res, err: err, start: start, dur: end - start, parent: uint32(h.idx) + 1, mode: mode})
	}
	tt.mu.Unlock()
}

// appendSpans appends tt's spans to dst — all of them, or only the
// completed ones — with the fields a record stores. Caller holds tt.mu.
func (r *Recorder) appendSpans(dst []Span, tt *txnTrace, withOpen bool) []Span {
	for i := range tt.recs {
		rc := &tt.recs[i]
		if rc.open && !withOpen {
			continue
		}
		sp := Span{Txn: tt.txn, ID: uint64(i) + 1, Parent: uint64(rc.parent), Kind: rc.kind, Resource: rc.res,
			Mode: rc.mode.String(), Start: r.epoch.Add(rc.start), Dur: rc.dur, Open: rc.open}
		if rc.err != nil {
			sp.Err = rc.err.Error()
		}
		dst = append(dst, sp)
	}
	return dst
}

// derive fills in the fields that are pure functions of Resource, where
// spans leave the recorder instead of once per span on the locking path.
func (r *Recorder) derive(spans []Span) {
	for i := range spans {
		spans[i].Unit = r.kindOf(spans[i].Resource)
		spans[i].Shard = r.shardOf(spans[i].Resource)
	}
}

// SpansOf returns a copy of txn's buffered spans (nil once the transaction
// has finished), in start order; spans still in flight have Open set.
func (r *Recorder) SpansOf(txn lock.TxnID) []Span {
	s := r.shards[uint32(txn)&r.mask]
	// The registry mutex is held across the copy: FinishTxn must take it to
	// unregister the buffer before recycling it, so the buffer cannot change
	// owners under the reader.
	s.mu.Lock()
	defer s.mu.Unlock()
	tt := s.buf[txn]
	if tt == nil {
		return nil
	}
	tt.mu.Lock()
	out := r.appendSpans(nil, tt, true)
	tt.mu.Unlock()
	r.derive(out)
	return out
}

// FinishTxn ends txn's tracing: its span handles die, and its buffer moves
// to the flight recorder. A no-op on a nil recorder or a transaction that
// recorded nothing.
func (r *Recorder) FinishTxn(txn lock.TxnID) {
	if r == nil {
		return
	}
	s := r.shards[uint32(txn)&r.mask]
	if s.n.Load() == 0 {
		// Nothing buffered anywhere in this stripe.
		return
	}
	s.mu.Lock()
	tt := s.buf[txn]
	if tt != nil {
		delete(s.buf, txn)
		s.n.Add(-1)
	}
	s.mu.Unlock()
	if tt == nil {
		return
	}
	// Unregistered: from here readers reach the buffer only through the
	// flight recorder, and a stale handle stops at the gen check.
	tt.mu.Lock()
	tt.gen++
	tt.mu.Unlock()
	r.retain(tt)
}

// retain keeps a finished buffer in the flight recorder, evicting the
// oldest while more than maxRetained spans are kept; a buffer over the
// budget on its own goes straight back to the pool.
func (r *Recorder) retain(tt *txnTrace) {
	n := len(tt.recs) // no handle appends any more
	if n > maxRetained {
		recycle(tt)
		return
	}
	r.finMu.Lock()
	defer r.finMu.Unlock()
	if r.finTail == nil {
		r.finHead = tt
	} else {
		r.finTail.next = tt
	}
	r.finTail = tt
	r.finSpans += n
	for r.finSpans > maxRetained {
		old := r.finHead
		r.finHead, r.finSpans = old.next, r.finSpans-len(old.recs)
		recycle(old)
	}
}

// Recent returns up to n of the most recently started completed spans
// (oldest first): those of live transactions and those the flight recorder
// retained of finished ones. n ≤ 0 returns everything.
func (r *Recorder) Recent(n int) []Span {
	var out []Span
	for _, s := range r.shards {
		s.mu.Lock()
		for _, tt := range s.buf {
			tt.mu.Lock()
			out = r.appendSpans(out, tt, false)
			tt.mu.Unlock()
		}
		s.mu.Unlock()
	}
	// Retained buffers change only when evicted, under finMu.
	r.finMu.Lock()
	for tt := r.finHead; tt != nil; tt = tt.next {
		out = r.appendSpans(out, tt, false)
	}
	r.finMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	r.derive(out)
	return out
}

// Tree renders a span slice as an indented tree (children under parents, in
// ID order), one line per span — the .spans view of colockshell.
func Tree(spans []Span) string {
	children := make(map[uint64][]Span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i].ID < c[j].ID })
	}
	var b strings.Builder
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		for _, sp := range children[parent] {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(sp.Kind)
			b.WriteString(" ")
			b.WriteString(sp.Mode)
			b.WriteString(" ")
			b.WriteString(string(sp.Resource))
			if sp.Unit != "" {
				b.WriteString(" [")
				b.WriteString(sp.Unit)
				b.WriteString("]")
			}
			if sp.Open {
				b.WriteString(" (open)")
			} else {
				b.WriteString(" (")
				b.WriteString(sp.Dur.String())
				b.WriteString(")")
			}
			if sp.Err != "" {
				b.WriteString(" err=")
				b.WriteString(sp.Err)
			}
			b.WriteString("\n")
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}
