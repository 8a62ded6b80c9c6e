package lock

import (
	"sync"
	"time"
)

// EventKind is an event kind as a small integer, stamped on every event next
// to its Kind string so that sinks switch instead of comparing strings. Zero
// marks an event the manager did not build (a test literal, a journal record
// read back); KindCode resolves those from the string.
type EventKind uint8

const (
	KindOther EventKind = iota
	KindGrant
	KindConvert
	KindWait
	KindRelease
	KindReleaseAll
	KindDowngrade
	KindVictim
	KindTimeout
	KindCancel
	KindShed

	NumEventKinds
)

var kindNames = [NumEventKinds]string{"other", "grant", "convert", "wait", "release",
	"release-all", "downgrade", "victim", "timeout", "cancel", "shed"}

// String returns the kind's Event.Kind spelling.
func (k EventKind) String() string {
	if k < NumEventKinds {
		return kindNames[k]
	}
	return kindNames[KindOther]
}

// KindOf maps an Event.Kind string to its code (KindOther when unknown).
func KindOf(kind string) EventKind {
	for k := KindGrant; k < NumEventKinds; k++ {
		if kindNames[k] == kind {
			return k
		}
	}
	return KindOther
}

// Event is a lock-manager trace event, delivered to every attached sink
// (Options.Sinks and AttachSink additions).
type Event struct {
	Kind string // "grant", "wait", "convert", "release", "release-all", "victim", "downgrade", "timeout", "cancel", "shed"
	// Code is Kind as an integer; see EventKind.
	Code EventKind
	Mode Mode
	// Waited reports, on grant/convert events, that the request queued
	// before being granted (its Dur is then a real wait, not a fast-path
	// latency).
	Waited bool
	// WaitDie marks victim events produced by wait-die prevention (the
	// requester died younger-waits-never) as opposed to detected-cycle
	// victims; rate monitors separate the two abort classes.
	WaitDie  bool
	Txn      TxnID
	Resource Resource
	// Shard is the lock-table stripe that served the operation.
	Shard int
	// At is the monotonic timestamp taken when the event was delivered: the
	// events of one delivery round share one clock reading.
	At time.Time
	// Dur is a kind-dependent duration: for grant/convert it is the
	// request-to-grant latency, for release the hold time of the dropped
	// lock, for timeout/cancel/victim the time spent blocked before the
	// request was withdrawn, for release-all the duration of the whole
	// end-of-transaction sweep. Zero for wait/downgrade events, and zero
	// whenever the needed reference timestamp was not captured (the
	// matching earlier operation ran before a sink was attached).
	Dur time.Duration
	// Blockers names, on wait events (and wait-die victim events), the
	// transactions the request queued behind — incompatible holders plus
	// incompatible earlier waiters — computed under the shard latch at
	// enqueue time. Contention profiles use it to attribute the eventual
	// blocked time to specific holding transactions.
	Blockers []TxnID
	// Resources carries, on release-all events, the resources the sweep
	// actually released, in release order — what a dying deadlock victim
	// gave up, for incident dumps.
	Resources []Resource
}

// KindCode returns Code, resolved from Kind where the manager did not stamp it.
func (e *Event) KindCode() EventKind {
	if e.Code != KindOther {
		return e.Code
	}
	return KindOf(e.Kind)
}

// EventSink consumes trace events. Sinks are invoked by the goroutine
// performing the operation, after all manager latches have been released, so
// a sink may call back into the manager — but it must not block on a lock:
// a deadlock victim's event is delivered inside the walk that chose it, and
// walks run one at a time.
type EventSink interface {
	Record(Event)
}

// BatchSink is the optional batch form of EventSink: a sink that has it gets
// each delivery round of an operation as one call, in emission order, instead
// of one Record call per event. The slice is borrowed — it is reused once
// RecordBatch returns, so a sink copies the events it keeps. The Blockers and
// Resources slices inside an event are never reused and may be kept.
type BatchSink interface {
	RecordBatch([]Event)
}

// consumer takes one delivery round; batchOf adapts a sink to it.
type consumer func([]Event)

func batchOf(s EventSink) consumer {
	if b, ok := s.(BatchSink); ok {
		return b.RecordBatch
	}
	return func(evs []Event) {
		for i := range evs {
			s.Record(evs[i])
		}
	}
}

// wake is owed to a blocked request once the events of the operation that
// resolved it have been delivered.
type wake struct {
	ready chan error
	err   error
}

// tracer buffers one operation's events, and the wake-ups of the requests it
// resolved, until the shard latch is released. A nil *tracer (no consumer
// attached) records nothing. Tracers are pooled: the operation that got one
// from newTracer hands it back with finish exactly once, on every return
// path, and never touches it afterwards.
type tracer struct {
	consumers []consumer
	start     time.Time // operation start, the fast-path latency and hold reference
	evs       []Event
	wakes     []wake
}

var tracerPool = sync.Pool{New: func() any { return &tracer{evs: make([]Event, 0, 8)} }}

// newTracer makes the per-operation tracing decision: every operation is
// traced while a consumer is attached, none otherwise. Untraced operations
// pay one atomic load and never touch the clock.
func (m *Manager) newTracer() *tracer {
	p := m.sinks.Load()
	if p == nil {
		return nil
	}
	t := tracerPool.Get().(*tracer)
	t.consumers, t.start = *p, time.Now()
	return t
}

// add appends an event of kind k and returns it for the caller to set what
// else the kind carries; the pointer is valid until the next add. The event
// is stamped when its round is delivered: At = that clock reading, Dur =
// At − ref (a zero ref leaves Dur zero). Until then At holds ref.
func (t *tracer) add(k EventKind, ref time.Time, txn TxnID, r Resource, mode Mode, shard int) *Event {
	t.evs = append(t.evs, Event{Kind: kindNames[k], Code: k, At: ref, Txn: txn, Resource: r, Mode: mode, Shard: shard})
	return &t.evs[len(t.evs)-1]
}

// wakeAfter wakes a resolved request once the resolving operation's events
// are delivered, so that its terminal event has reached every sink before it
// returns. Untraced operations wake it at once.
func (t *tracer) wakeAfter(w *waiter, err error) {
	if t == nil {
		w.ready <- err
		return
	}
	t.wakes = append(t.wakes, wake{ready: w.ready, err: err})
}

// deliver stamps the buffered events with one clock reading, hands them to
// every consumer in turn, then fires the owed wake-ups, and empties both
// buffers (an operation delivers in rounds: wait, then withdraw). MUST be
// called with no latch held.
func (t *tracer) deliver() {
	if t == nil {
		return
	}
	if len(t.evs) > 0 {
		now := time.Now()
		for i := range t.evs {
			e := &t.evs[i]
			if !e.At.IsZero() {
				e.Dur = now.Sub(e.At)
			}
			e.At = now
		}
		for _, c := range t.consumers {
			c(t.evs)
		}
		clear(t.evs)
		t.evs = t.evs[:0]
	}
	for _, w := range t.wakes {
		w.ready <- w.err
	}
	clear(t.wakes)
	t.wakes = t.wakes[:0]
}

// finish delivers what is buffered and returns the tracer to the pool.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	t.deliver()
	t.consumers = nil
	tracerPool.Put(t)
}
