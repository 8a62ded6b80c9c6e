package txn

import (
	"errors"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/trace"
)

func newTracedManager(t *testing.T) (*Manager, *trace.Recorder) {
	t.Helper()
	st := store.PaperDatabase()
	nm := core.NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	rec := trace.NewRecorder(trace.Options{ShardOf: mgr.ShardOf})
	proto := core.NewProtocol(mgr, st, nm, core.Options{Tracer: rec})
	return NewManager(proto, st), rec
}

// A transaction's spans are readable while it runs, all closed once its
// operations return, and dropped by Commit and Abort alike.
func TestSpanFlushAtCommitAndAbort(t *testing.T) {
	m, rec := newTracedManager(t)
	for _, commit := range []bool{true, false} {
		tx := m.Begin()
		if _, err := tx.Read(store.P("cells", "c1", "cell_id")); err != nil {
			t.Fatal(err)
		}
		spans := rec.SpansOf(tx.ID())
		if len(spans) == 0 {
			t.Errorf("txn %d recorded no spans", tx.ID())
		}
		for _, sp := range spans {
			if sp.Open {
				t.Errorf("txn %d has an open span after Read returned: %+v", tx.ID(), sp)
			}
		}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Abort()
		}
		if rec.SpansOf(tx.ID()) != nil {
			t.Errorf("txn %d buffer survived finish (commit=%v)", tx.ID(), commit)
		}
	}
}

// Txn.LockTimeout surfaces lock.ErrTimeout and leaves the failed span in
// the transaction's buffer.
func TestTxnLockTimeout(t *testing.T) {
	m, rec := newTracedManager(t)
	holder := m.Begin()
	if err := holder.LockPath(nil, store.P("cells", "c1"), lock.X); err != nil {
		t.Fatal(err)
	}
	blocked := m.Begin()
	err := blocked.Lock(nil, core.DataNode(store.P("cells", "c1")), lock.X, WithTimeout(5*time.Millisecond))
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	var sawTimeoutSpan bool
	spans := rec.SpansOf(blocked.ID())
	for _, sp := range spans {
		if sp.Err != "" {
			sawTimeoutSpan = true
		}
	}
	if !sawTimeoutSpan {
		t.Errorf("no errored span recorded for the timed-out txn: %+v", spans)
	}
	blocked.Abort()
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}
