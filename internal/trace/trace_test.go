package trace

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"colock/internal/lock"
)

func TestSpanTreeLifecycle(t *testing.T) {
	rec := NewRecorder(Options{})

	root := rec.Start(7, "lock", "db1/seg1/cells/c1", lock.X)
	up := root.Child("upward", "db1/seg1/cells", lock.IX)
	up.End(nil)
	acq := root.Child("acquire", "db1/seg1/cells/c1", lock.X)
	acq.End(nil)
	root.End(nil)

	spans := rec.SpansOf(7)
	if len(spans) != 3 {
		t.Fatalf("SpansOf = %d spans, want 3", len(spans))
	}
	if spans[0].ID != 1 || spans[0].Parent != 0 || spans[0].Kind != "lock" {
		t.Errorf("root span = %+v", spans[0])
	}
	for _, sp := range spans[1:] {
		if sp.Parent != spans[0].ID {
			t.Errorf("child span %+v not under root", sp)
		}
		if sp.Open {
			t.Errorf("ended span still open: %+v", sp)
		}
	}
	if spans[1].Mode != "IX" || spans[1].Resource != "db1/seg1/cells" {
		t.Errorf("upward span = %+v", spans[1])
	}
	if spans[1].Unit != "relation" {
		t.Errorf("upward span unit = %q, want relation (depth classifier)", spans[1].Unit)
	}

	rec.FinishTxn(7)
	if got := rec.SpansOf(7); got != nil {
		t.Errorf("buffer not dropped by FinishTxn: %v", got)
	}
	rec.FinishTxn(7) // a second finish finds nothing to drop
	// The handles died with the transaction: a late End or Child is ignored,
	// even though the buffer is already back in the pool for the next one.
	root.End(nil)
	if c := root.Child("acquire", "db1", lock.IS); c.Recording() {
		t.Error("Child of a finished transaction's handle still records")
	}
	rec.Start(8, "lock", "db1", lock.IS).End(nil)
	if got := rec.SpansOf(8); len(got) != 1 || got[0].Txn != 8 || got[0].ID != 1 {
		t.Errorf("recycled buffer leaked into txn 8: %+v", got)
	}
}

func TestNilHandleAndNilRecorderAreInert(t *testing.T) {
	var rec *Recorder
	h := rec.Start(1, "lock", "a", lock.S)
	if h.Recording() {
		t.Fatalf("nil recorder Start = %v, want the zero handle", h)
	}
	h.Child("acquire", "a", lock.S).End(nil) // must not panic
	h.End(nil)
	rec.FinishTxn(1) // must not panic
}

// finishTxn finishes transaction txn with n spans: a root and n-1 children.
func finishTxn(rec *Recorder, txn lock.TxnID, n int) {
	root := rec.Start(txn, "lock", "a", lock.S)
	for i := 1; i < n; i++ {
		root.Child("upward", "a", lock.IS).End(nil)
	}
	root.End(nil)
	rec.FinishTxn(txn)
}

// txnsOf lists the distinct transactions of spans in order of appearance.
func txnsOf(spans []Span) []lock.TxnID {
	var out []lock.TxnID
	for _, sp := range spans {
		if len(out) == 0 || out[len(out)-1] != sp.Txn {
			out = append(out, sp.Txn)
		}
	}
	return out
}

func TestFlightRecorderRingBounds(t *testing.T) {
	rec := NewRecorder(Options{})
	const perTxn, txns = 10, 500 // 5,000 spans: the oldest must go
	for i := 1; i <= txns; i++ {
		finishTxn(rec, lock.TxnID(i), perTxn)
	}
	recent := rec.Recent(0)
	const kept = maxRetained / perTxn
	if len(recent) != kept*perTxn {
		t.Fatalf("flight recorder retained %d spans, want %d", len(recent), kept*perTxn)
	}
	// Evicted oldest first: the survivors are the last transactions to
	// finish, oldest first, each whole.
	got := txnsOf(recent)
	if len(got) != kept || got[0] != txns-kept+1 || got[kept-1] != txns {
		t.Fatalf("retained transactions %v, want %d..%d", got, txns-kept+1, txns)
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].Start.Before(recent[i-1].Start) {
			t.Fatalf("Recent not in start order at %d: %+v", i, recent[i-1:i+1])
		}
	}
	if got := rec.Recent(2); len(got) != 2 || got[1] != recent[len(recent)-1] {
		t.Errorf("Recent(2) = %+v, want the last two spans", got)
	}

	// A transaction over the budget on its own is not retained, and evicts
	// nothing.
	finishTxn(rec, txns+1, maxRetained+1)
	if after := rec.Recent(0); len(after) != len(recent) || txnsOf(after)[0] != txns-kept+1 {
		t.Errorf("an over-budget transaction changed the flight recorder: %d spans, transactions %v", len(after), txnsOf(after))
	}
	// One exactly at the budget displaces everything else.
	finishTxn(rec, txns+2, maxRetained)
	if after := rec.Recent(0); len(after) != maxRetained || len(txnsOf(after)) != 1 {
		t.Errorf("after a full-budget transaction: %d spans of %v, want %d of one", len(after), txnsOf(after), maxRetained)
	}
}

// Recent also shows the completed spans of transactions still running, and
// none of their open ones.
func TestRecentIncludesLiveCompletedSpans(t *testing.T) {
	rec := NewRecorder(Options{})
	finishTxn(rec, 1, 2)
	root := rec.Start(2, "lock", "db1/seg1/cells/c1", lock.X)
	root.Child("upward", "db1", lock.IX).End(nil)
	open := root.Child("acquire", "db1/seg1/cells/c1", lock.X)

	recent := rec.Recent(0)
	var live []Span
	for _, sp := range recent {
		if sp.Open {
			t.Errorf("open span in Recent: %+v", sp)
		}
		if sp.Txn == 2 {
			live = append(live, sp)
		}
	}
	if len(recent) != 3 || len(live) != 1 || live[0].Kind != "upward" || live[0].Unit != "database" {
		t.Fatalf("Recent = %+v, want txn 1's two spans and txn 2's completed upward span", recent)
	}
	open.End(nil)
	root.End(nil)
	if got := rec.Recent(0); len(got) != 5 {
		t.Errorf("Recent after the live spans closed = %d spans, want 5", len(got))
	}
}

// poke drives every method of a handle, as a late caller would.
func poke(h SpanHandle) {
	h.End(errors.New("late"))
	h.EndAtLast(nil)
	if c := h.Child("acquire", "z", lock.X); c.Recording() {
		panic("a stale handle opened a child")
	}
	start, end := h.Lap()
	h.ChildDone("upward", "z", lock.IX, start, end, nil)
}

// A handle dies with its transaction's FinishTxn: whether its buffer sits in
// the flight recorder or already serves another transaction, nothing it
// does shows anywhere.
func TestStaleHandleAfterFinish(t *testing.T) {
	rec := NewRecorder(Options{})
	for attempt := 0; attempt < 50; attempt++ {
		txn := lock.TxnID(10*attempt + 1)
		stale := rec.Start(txn, "lock", "a", lock.S)
		stale.Child("acquire", "a", lock.S).End(nil)
		rec.FinishTxn(txn)

		retained := rec.Recent(0)
		poke(stale)
		if got := rec.Recent(0); !reflect.DeepEqual(got, retained) {
			t.Fatalf("stale handle changed the retained buffer:\n%+v\nwant\n%+v", got, retained)
		}

		// A full-budget transaction evicts the buffer back to the pool; the
		// next transaction usually gets it from there.
		finishTxn(rec, txn+1, maxRetained)
		next := rec.Start(txn+2, "lock", "b", lock.X)
		if next.tt != stale.tt {
			rec.FinishTxn(txn + 2)
			continue // the pool dropped or kept it: try again
		}
		next.Child("upward", "b", lock.IX).End(nil)
		owned, recent := rec.SpansOf(txn+2), rec.Recent(0)
		poke(stale)
		if got := rec.SpansOf(txn + 2); !reflect.DeepEqual(got, owned) {
			t.Fatalf("stale handle wrote into the buffer's new owner:\n%+v\nwant\n%+v", got, owned)
		}
		if got := rec.Recent(0); !reflect.DeepEqual(got, recent) {
			t.Fatalf("stale handle changed Recent:\n%+v\nwant\n%+v", got, recent)
		}
		return
	}
	t.Fatal("no evicted buffer came back from the pool in 50 attempts")
}

// Eight goroutines record and finish transactions while a reader loops over
// every way spans leave the recorder; under -race this proves buffers are
// never read while they change owners.
func TestRecorderConcurrentStress(t *testing.T) {
	rec := NewRecorder(Options{})
	iw := NewIncidentWriter(t.TempDir(), rec, nil, IncidentOptions{})
	const workers, txns = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				txn := lock.TxnID(w*txns + i + 1)
				root := rec.Start(txn, "lock", "db1/seg1/cells/c1", lock.S)
				start, end := root.Lap()
				root.ChildDone("upward", "db1", lock.IS, start, end, nil)
				root.ChildDone("upward", "db1/seg1", lock.IS, start, end, nil)
				down := root.Child("downward", "db1/seg1/arms/a1", lock.S)
				down.Child("acquire", "db1/seg1/arms/a1", lock.S).End(nil)
				down.EndAtLast(nil)
				root.End(nil)
				rec.FinishTxn(txn)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			for _, sp := range rec.Recent(0) {
				if sp.Open || sp.Dur < 0 {
					t.Errorf("retained span open or negative: %+v", sp)
				}
			}
			if n := len(rec.Recent(0)); n > maxRetained {
				t.Errorf("flight recorder holds %d spans, want ≤ %d", n, maxRetained)
			}
			return
		default:
		}
		_ = rec.Recent(16)
		_ = rec.SpansOf(lock.TxnID(reads%(workers*txns) + 1))
		_, _ = iw.Trigger("manual", lock.TxnID(reads%(workers*txns)+1), "a", "S")
	}
}

func TestTreeRendering(t *testing.T) {
	rec := NewRecorder(Options{})
	root := rec.Start(3, "lock", "db1/seg1/cells/c1/robots/r1", lock.X)
	root.Child("upward", "db1", lock.IX).End(nil)
	down := root.Child("downward", "db1/seg1/arms/a1", lock.X)
	down.Child("acquire", "db1/seg1/arms/a1", lock.X).End(nil)
	down.End(nil)
	root.End(nil)

	out := Tree(rec.SpansOf(3))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("tree = %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "lock X db1/seg1/cells/c1/robots/r1") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  upward IX db1 ") {
		t.Errorf("upward line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "    acquire X db1/seg1/arms/a1") {
		t.Errorf("nested acquire line = %q", lines[3])
	}
	if strings.Contains(out, "(open)") {
		t.Errorf("closed spans rendered open:\n%s", out)
	}
}
