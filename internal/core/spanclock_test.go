package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/trace"
)

// isCall reports whether a span stands for a lock-manager request.
func isCall(sp trace.Span) bool { return sp.Kind == "upward" || sp.Kind == "acquire" }

func spanEnd(sp trace.Span) time.Time { return sp.Start.Add(sp.Dur) }

// TestSpansTileTheCall: the recorder reads the clock at call boundaries
// only, so the spans of one LockWith call tile its interval. The root and
// its first child start together; every child starts where the previous
// manager call ended (the spans of one batch share that call's bounds); a
// propagation span ends with the last manager call made under it.
func TestSpansTileTheCall(t *testing.T) {
	_, st := nestedCatalogAndStore(t)
	p, rec := tracedProto(t, st, lock.Options{})
	if err := p.LockPath(1, store.P("assemblies", "a1"), lock.S); err != nil {
		t.Fatal(err)
	}
	spans := rec.SpansOf(1)
	if len(spans) < 2 || !spans[0].Start.Equal(spans[1].Start) {
		t.Fatalf("root and first child start apart: %+v", spans)
	}
	last := spans[0].Start  // the end of the latest manager call
	var callStart time.Time // and its start
	lastCallUnder := make(map[uint64]time.Time)
	for _, sp := range spans[1:] {
		switch {
		case sp.Start.Equal(last):
		case isCall(sp) && sp.Start.Equal(callStart) && spanEnd(sp).Equal(last):
			continue // another request of the same batch
		default:
			t.Fatalf("span %d %s %s starts at %v, want the last call's end %v", sp.ID, sp.Kind, sp.Resource, sp.Start, last)
		}
		if isCall(sp) {
			callStart, last = sp.Start, spanEnd(sp)
			for a := sp.Parent; a != 0; a = spans[a-1].Parent {
				lastCallUnder[a] = last
			}
		}
	}
	downward := 0
	for _, sp := range spans {
		if sp.Dur < 0 {
			t.Errorf("span %+v has a negative duration", sp)
		}
		if sp.Kind == "downward" {
			downward++
			if want := lastCallUnder[sp.ID]; !spanEnd(sp).Equal(want) {
				t.Errorf("downward span %s ends at %v, want its last call's end %v", sp.Resource, spanEnd(sp), want)
			}
		}
	}
	if downward != 2 {
		t.Errorf("%d downward spans, want 2 (parts/p1, bolts/b1)", downward)
	}
	if root := spans[0]; spanEnd(root).Before(last) {
		t.Errorf("root ends at %v, before its last call %v", spanEnd(root), last)
	}
}

// skipUnlessPoolsRecycle skips an allocation pin when sync.Pool drops what
// it is given, as it does on purpose under the race detector.
func skipUnlessPoolsRecycle(t *testing.T) {
	t.Helper()
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			t.Skip("sync.Pool is dropping objects (race detector on): allocation counts mean nothing")
		}
	}
}

// A warm traced LockWith allocates nothing the untraced one does not:
// records go into the transaction's pooled buffer, which the flight
// recorder hands back to the pool when it evicts it.
func TestWarmTracedLockWithAllocs(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	_, st := nestedCatalogAndStore(t)
	traced, rec := tracedProto(t, st, lock.Options{})
	bare := NewProtocol(lock.NewManager(lock.Options{}), st, NewNamer(st.Catalog(), false), Options{})
	t.Cleanup(bare.Manager().Close)
	ctx := context.Background()
	warmAllocs := func(p *Protocol, n Node, mode lock.Mode) float64 {
		txn := lock.TxnID(0)
		run := func() {
			txn++
			if err := p.LockWith(ctx, txn, n, mode, false, false, 0); err != nil {
				t.Fatal(err)
			}
			p.Release(txn)
			rec.FinishTxn(txn) // a no-op for bare: it never recorded under txn
		}
		for i := 0; i < 1000; i++ { // fill the flight recorder: evictions feed the pool
			run()
		}
		return testing.AllocsPerRun(200, run)
	}
	for _, tc := range []struct {
		name string
		node Node
		mode lock.Mode
	}{
		{"chain", DataNode(store.P("bolts", "b1")), lock.IX},
		{"node", DataNode(store.P("bolts", "b1")), lock.S},
		{"propagating", DataNode(store.P("assemblies", "a1")), lock.S},
	} {
		want := warmAllocs(bare, tc.node, tc.mode)
		if got := warmAllocs(traced, tc.node, tc.mode); got != want {
			t.Errorf("%s: warm traced LockWith + release + finish = %.1f allocs, untraced %.1f", tc.name, got, want)
		}
		if tc.name != "propagating" && want != 0 {
			t.Errorf("%s: warm untraced LockWith + release = %.1f allocs, want 0", tc.name, want)
		}
	}
}
