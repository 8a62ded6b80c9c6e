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
// Spans are buffered per transaction (transactions are single threads of
// execution, so the buffer append is uncontended; a leaf mutex guards it
// only against concurrent readers) and dropped at commit/abort. They leave
// the recorder three ways: SpansOf copies a live transaction's buffer, Recent
// reads the flight recorder of completed spans, and incident dumps embed
// both.
//
// Recording allocates nothing at steady state: a transaction's buffer is
// looked up once per root span and travels in the SpanHandle, and buffers —
// span slices included — are recycled across transactions. The price is a
// lifetime rule: a SpanHandle dies with its transaction's FinishTxn (a late
// End is ignored).
package trace

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/lock"
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

// The flight recorder keeps the last ringSize completed spans in each of
// nRings rings (a power of two). Completed spans are routed by their
// lock-table shard, so disjoint lock traffic lands on disjoint rings.
const (
	ringSize = 256
	nRings   = 16
)

// Options configures a Recorder.
type Options struct {
	// KindOf classifies a resource into a lockable-unit kind label for the
	// span's Unit field; nil uses a path-depth default mirroring
	// obs.DepthKindOf.
	KindOf func(lock.Resource) string
	// ShardOf maps a resource to its lock-table stripe (wire it to
	// lock.Manager.ShardOf); nil stamps shard 0.
	ShardOf func(lock.Resource) int
}

// depthKind is the default unit classifier (path depth, as in obs).
func depthKind(r lock.Resource) string {
	switch strings.Count(string(r), "/") {
	case 0:
		return "database"
	case 1:
		return "segment"
	case 2:
		return "relation"
	case 3:
		return "entry-point"
	}
	return "node"
}

// txnTrace is one transaction's span buffer. The owning transaction is a
// single thread of execution, so appends never contend; the mutex exists
// for concurrent readers (incident dumps, /trace/spans). Buffers are pooled:
// gen counts the buffer's lives, so a handle from an earlier life is
// recognised and ignored.
type txnTrace struct {
	txn   lock.TxnID
	mu    sync.Mutex
	gen   uint32
	spans []Span // span IDs are index+1
}

var txnTracePool = sync.Pool{New: func() any { return new(txnTrace) }}

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

	shards []*txnBufShard
	mask   uint32

	rings [nRings]spanRing
}

// NewRecorder builds a recorder.
func NewRecorder(opts Options) *Recorder {
	kindOf := opts.KindOf
	if kindOf == nil {
		kindOf = depthKind
	}
	shardOf := opts.ShardOf
	if shardOf == nil {
		shardOf = func(lock.Resource) int { return 0 }
	}
	const nShards = 64
	r := &Recorder{
		kindOf:  kindOf,
		shardOf: shardOf,
		shards:  make([]*txnBufShard, nShards),
		mask:    nShards - 1,
	}
	for i := range r.shards {
		r.shards[i] = &txnBufShard{buf: make(map[lock.TxnID]*txnTrace)}
	}
	return r
}

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

// Start opens a root span for a user-level lock call; on a nil recorder it
// returns the zero handle.
func (r *Recorder) Start(txn lock.TxnID, kind string, res lock.Resource, mode lock.Mode) SpanHandle {
	if r == nil {
		return SpanHandle{}
	}
	tt, gen := r.bufFor(txn)
	return r.start(tt, gen, 0, kind, res, mode, time.Now())
}

// Child opens a span under h. Inert on the zero handle.
func (h SpanHandle) Child(kind string, res lock.Resource, mode lock.Mode) SpanHandle {
	if h.tt == nil {
		return SpanHandle{}
	}
	return h.rec.start(h.tt, h.gen, uint64(h.idx)+1, kind, res, mode, time.Now())
}

// ChildDone records under h a span that ran from start to end: the way to
// give the requests of one batched manager call a span each, sharing the
// call's two clock reads. Inert on the zero handle.
func (h SpanHandle) ChildDone(kind string, res lock.Resource, mode lock.Mode, start, end time.Time, err error) {
	if h.tt != nil {
		h.rec.start(h.tt, h.gen, uint64(h.idx)+1, kind, res, mode, start).end(end, err)
	}
}

func (r *Recorder) start(tt *txnTrace, gen uint32, parent uint64, kind string, res lock.Resource, mode lock.Mode, now time.Time) SpanHandle {
	shard := r.shardOf(res)
	tt.mu.Lock()
	if tt.gen != gen {
		tt.mu.Unlock()
		return SpanHandle{}
	}
	idx := len(tt.spans)
	tt.spans = append(tt.spans, Span{
		Txn:      tt.txn,
		ID:       uint64(idx) + 1,
		Parent:   parent,
		Kind:     kind,
		Resource: res,
		Mode:     mode.String(),
		Shard:    shard,
		Start:    now,
		Open:     true,
	})
	tt.mu.Unlock()
	return SpanHandle{rec: r, tt: tt, idx: int32(idx), gen: gen}
}

// End closes the span, stamping its duration and error; the completed span
// is also pushed into the flight recorder. Inert on the zero handle.
func (h SpanHandle) End(err error) {
	if h.tt != nil {
		h.end(time.Now(), err)
	}
}

// end closes the span at the given time.
func (h SpanHandle) end(at time.Time, err error) {
	tt := h.tt
	if tt == nil {
		return
	}
	tt.mu.Lock()
	if tt.gen != h.gen {
		tt.mu.Unlock()
		return
	}
	sp := &tt.spans[h.idx]
	sp.Dur = at.Sub(sp.Start)
	sp.Open = false
	if err != nil {
		sp.Err = err.Error()
	}
	h.rec.rings[sp.Shard&(nRings-1)].add(sp)
	tt.mu.Unlock()
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
	out := append([]Span(nil), tt.spans...)
	tt.mu.Unlock()
	r.fillUnits(out)
	return out
}

// fillUnits classifies the spans' resources. Unit is a pure function of
// Resource, so it is worked out where spans leave the recorder (SpansOf,
// Recent) instead of once per span on the locking path.
func (r *Recorder) fillUnits(spans []Span) {
	for i := range spans {
		spans[i].Unit = r.kindOf(spans[i].Resource)
	}
}

// FinishTxn drops txn's buffered spans and recycles the buffer; txn's span
// handles die with it. A no-op on a nil recorder or a transaction that
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
	// Unregistered: no reader can reach the buffer any more. Only a stale
	// handle's End can still arrive, and it stops at the gen check.
	tt.mu.Lock()
	tt.gen++
	clear(tt.spans)
	tt.spans = tt.spans[:0]
	tt.mu.Unlock()
	txnTracePool.Put(tt)
}

// Recent returns up to n of the most recently completed spans from the
// flight recorder (oldest first); n ≤ 0 returns everything retained.
func (r *Recorder) Recent(n int) []Span {
	var out []Span
	for i := range r.rings {
		out = r.rings[i].snapshot(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	r.fillUnits(out)
	return out
}

// spanRing is one bounded flight-recorder buffer behind a leaf mutex.
type spanRing struct {
	mu    sync.Mutex
	buf   []Span
	start int
}

func (g *spanRing) add(sp *Span) {
	g.mu.Lock()
	if len(g.buf) < ringSize {
		g.buf = append(g.buf, *sp)
	} else {
		g.buf[g.start] = *sp
		g.start = (g.start + 1) % ringSize
	}
	g.mu.Unlock()
}

func (g *spanRing) snapshot(dst []Span) []Span {
	g.mu.Lock()
	dst = append(dst, g.buf[g.start:]...)
	dst = append(dst, g.buf[:g.start]...)
	g.mu.Unlock()
	return dst
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
