package trace

import (
	"strings"
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

func TestFlightRecorderRingBounds(t *testing.T) {
	// Without ShardOf every span is stamped shard 0 and lands on one ring.
	rec := NewRecorder(Options{})
	for i := 0; i < ringSize+20; i++ {
		rec.Start(1, "acquire", "a", lock.S).End(nil)
	}
	recent := rec.Recent(0)
	if len(recent) != ringSize {
		t.Fatalf("ring retained %d spans, want %d", len(recent), ringSize)
	}
	// Oldest-first: the survivors are the last ringSize completions.
	for i := 1; i < len(recent); i++ {
		if recent[i].Start.Before(recent[i-1].Start) {
			t.Errorf("Recent not in start order: %v", recent)
		}
	}
	if got := rec.Recent(2); len(got) != 2 {
		t.Errorf("Recent(2) = %d spans, want 2", len(got))
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
