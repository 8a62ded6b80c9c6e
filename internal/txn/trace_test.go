package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/trace"
)

type spanCapture struct {
	mu       sync.Mutex
	outcomes map[lock.TxnID]string
	spans    map[lock.TxnID][]trace.Span
}

func (sc *spanCapture) RecordSpans(txn lock.TxnID, outcome string, spans []trace.Span) {
	sc.mu.Lock()
	if sc.outcomes == nil {
		sc.outcomes = make(map[lock.TxnID]string)
		sc.spans = make(map[lock.TxnID][]trace.Span)
	}
	sc.outcomes[txn] = outcome
	sc.spans[txn] = append([]trace.Span(nil), spans...) // borrowed: copy
	sc.mu.Unlock()
}

func newTracedManager(t *testing.T) (*Manager, *trace.Recorder, *spanCapture) {
	t.Helper()
	st := store.PaperDatabase()
	nm := core.NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	sink := &spanCapture{}
	rec := trace.NewRecorder(trace.Options{ShardOf: mgr.ShardOf, Sinks: []trace.SpanSink{sink}})
	proto := core.NewProtocol(mgr, st, nm, core.Options{Tracer: rec})
	return NewManager(proto, st), rec, sink
}

// Commit and Abort flush the transaction's span buffer to the span sinks
// with the matching outcome, and drop the buffer.
func TestSpanFlushAtCommitAndAbort(t *testing.T) {
	m, rec, sink := newTracedManager(t)

	tc := m.Begin()
	if _, err := tc.Read(store.P("cells", "c1", "cell_id")); err != nil {
		t.Fatal(err)
	}
	if err := tc.Commit(); err != nil {
		t.Fatal(err)
	}
	ta := m.Begin()
	if _, err := ta.Read(store.P("cells", "c1", "cell_id")); err != nil {
		t.Fatal(err)
	}
	ta.Abort()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.outcomes[tc.ID()] != "commit" {
		t.Errorf("outcome for committed txn = %q, want commit", sink.outcomes[tc.ID()])
	}
	if sink.outcomes[ta.ID()] != "abort" {
		t.Errorf("outcome for aborted txn = %q, want abort", sink.outcomes[ta.ID()])
	}
	for _, id := range []lock.TxnID{tc.ID(), ta.ID()} {
		if len(sink.spans[id]) == 0 {
			t.Errorf("txn %d flushed no spans", id)
		}
		if rec.SpansOf(id) != nil {
			t.Errorf("txn %d buffer survived finish", id)
		}
		for _, sp := range sink.spans[id] {
			if sp.Open {
				t.Errorf("txn %d flushed open span %+v", id, sp)
			}
		}
	}
}

// Txn.LockTimeout surfaces lock.ErrTimeout and leaves the failed span in
// the abort flush.
func TestTxnLockTimeout(t *testing.T) {
	m, _, sink := newTracedManager(t)
	holder := m.Begin()
	if err := holder.LockPath(nil, store.P("cells", "c1"), lock.X); err != nil {
		t.Fatal(err)
	}
	blocked := m.Begin()
	err := blocked.Lock(nil, core.DataNode(store.P("cells", "c1")), lock.X, WithTimeout(5*time.Millisecond))
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	blocked.Abort()
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	var sawTimeoutSpan bool
	for _, sp := range sink.spans[blocked.ID()] {
		if sp.Err != "" {
			sawTimeoutSpan = true
		}
	}
	if !sawTimeoutSpan {
		t.Errorf("no errored span flushed for the timed-out txn: %+v", sink.spans[blocked.ID()])
	}
}
