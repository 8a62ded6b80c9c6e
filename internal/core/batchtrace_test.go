package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
	"colock/internal/trace"
)

// spanLines renders what the span tree contract fixes: kind, mode, resource,
// parent and (by position) order.
func spanLines(spans []trace.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = fmt.Sprintf("%d<-%d %s %s %s", sp.ID, sp.Parent, sp.Kind, sp.Mode, sp.Resource)
	}
	return out
}

func tracedProto(t *testing.T, st *store.Store, mopts lock.Options) (*Protocol, *trace.Recorder) {
	t.Helper()
	mgr := lock.NewManager(mopts)
	t.Cleanup(mgr.Close)
	rec := trace.NewRecorder(trace.Options{ShardOf: mgr.ShardOf})
	return NewProtocol(mgr, st, NewNamer(st.Catalog(), false), Options{Tracer: rec}), rec
}

// TestTracedChainIsBatched: a wired tracer adds spans and changes nothing
// else. The cold chain is one AcquireBatch, as in TestColdChainIsBatched; its
// span tree has one child per request, root to leaf under the call's root
// span, and the batch's spans share its start and end.
func TestTracedChainIsBatched(t *testing.T) {
	p, rec := tracedProto(t, store.PaperDatabase(), lock.Options{})
	if err := p.Lock(1, DataNode(store.P("cells", "c1")), lock.IX); err != nil {
		t.Fatal(err)
	}
	if ms := p.Manager().Stats(); ms.Batches != 1 || ms.BatchFastGrants != 4 {
		t.Errorf("Batches = %d, BatchFastGrants = %d, want 1 and 4 (db1, seg1, cells, c1)", ms.Batches, ms.BatchFastGrants)
	}
	spans := rec.SpansOf(1)
	want := []string{
		"1<-0 lock IX db1/seg1/cells/c1",
		"2<-1 upward IX db1",
		"3<-1 upward IX db1/seg1",
		"4<-1 upward IX db1/seg1/cells",
		"5<-1 acquire IX db1/seg1/cells/c1",
	}
	if got := spanLines(spans); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("span tree:\n%q\nwant:\n%q", got, want)
	}
	for _, sp := range spans[1:] {
		if sp.Open || sp.Err != "" || !sp.Start.Equal(spans[1].Start) || sp.Dur != spans[1].Dur {
			t.Errorf("span %+v: want closed, clean, with the batch's start %v and duration %v", sp, spans[1].Start, spans[1].Dur)
		}
		if sp.Shard != p.Manager().ShardOf(sp.Resource) {
			t.Errorf("span %s shard = %d, want %d", sp.Resource, sp.Shard, p.Manager().ShardOf(sp.Resource))
		}
	}
	assertProtocolInvariants(t, p, 1)
}

// TestTracedBatchBlockedAncestor: when a request inside the batch fails, the
// spans say which one. Here the second ancestor times out: the first ends
// clean, the second carries the error, the requests after it were never made.
func TestTracedBatchBlockedAncestor(t *testing.T) {
	p, rec := tracedProto(t, store.PaperDatabase(), lock.Options{Policy: lock.PolicyNone})
	if err := p.Manager().AcquireCtx(context.Background(), 1, "db1/seg1", lock.X); err != nil {
		t.Fatal(err)
	}
	const wait = 5 * time.Millisecond
	err := p.LockWith(context.Background(), 2, DataNode(store.P("cells", "c1")), lock.IX, false, false, wait)
	var le *lock.LockError
	if !errors.Is(err, lock.ErrTimeout) || !errors.As(err, &le) || le.Resource != "db1/seg1" {
		t.Fatalf("got %v, want a timeout on db1/seg1", err)
	}
	spans := rec.SpansOf(2)
	want := []string{
		"1<-0 lock IX db1/seg1/cells/c1",
		"2<-1 upward IX db1",
		"3<-1 upward IX db1/seg1",
	}
	if got := spanLines(spans); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("span tree:\n%q\nwant:\n%q", got, want)
	}
	if spans[0].Err == "" || spans[1].Err != "" || spans[2].Err != err.Error() {
		t.Errorf("errors on lock / db1 / db1/seg1 = %q / %q / %q, want the timeout on the root and on db1/seg1 only", spans[0].Err, spans[1].Err, spans[2].Err)
	}
	if spans[2].Dur < wait {
		t.Errorf("blocked span lasted %v, want ≥ %v", spans[2].Dur, wait)
	}
	if ms := p.Manager().Stats(); ms.Batches != 1 || ms.BatchFastGrants != 1 || ms.BatchFallbacks != 1 {
		t.Errorf("Batches / BatchFastGrants / BatchFallbacks = %d / %d / %d, want 1 / 1 / 1", ms.Batches, ms.BatchFastGrants, ms.BatchFallbacks)
	}
	if st := p.Stats(); st.UpwardLocks != 0 || st.BatchedLocks != 0 {
		t.Errorf("failed chain counted as acquired: %+v", st)
	}
	p.Release(2)
	p.Release(1)
}

// TestTracedDeepChainSpans: a chain longer than the eight requests the
// protocol's (and the manager's) stack buffers hold is still one batch with
// one span per request.
func TestTracedDeepChainSpans(t *testing.T) {
	level := schema.Tuple(schema.F("id", schema.Str()), schema.F("v", schema.Str()))
	for i := 0; i < 3; i++ {
		level = schema.Tuple(schema.F("id", schema.Str()), schema.F("sub", schema.Set(level)))
	}
	cat := schema.NewCatalog("db")
	if err := cat.AddRelation(&schema.Relation{Name: "deep", Segment: "s", Key: "id", Type: level}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	p, rec := tracedProto(t, store.New(cat), lock.Options{})
	// Instances need not exist: locking the future resource of an insert.
	leaf := store.P("deep", "o", "sub", "a", "sub", "b", "sub", "c", "v")
	if err := p.LockPath(1, leaf, lock.IX); err != nil {
		t.Fatal(err)
	}
	const chain = 11 // db, s, deep, o, sub, a, sub, b, sub, c, v
	if ms := p.Manager().Stats(); ms.Batches != 1 || ms.BatchFastGrants != chain {
		t.Errorf("Batches = %d, BatchFastGrants = %d, want 1 and %d", ms.Batches, ms.BatchFastGrants, chain)
	}
	spans, held := rec.SpansOf(1), p.Manager().HeldLocks(1)
	if len(spans) != 1+chain || len(held) != chain {
		t.Fatalf("%d spans, %d locks held, want %d and %d", len(spans), len(held), 1+chain, chain)
	}
	for i, h := range held { // acquisition order is root to leaf
		kind := "upward"
		if i == chain-1 {
			kind = "acquire"
		}
		if sp := spans[1+i]; sp.Kind != kind || sp.Resource != h.Resource || sp.Parent != spans[0].ID || sp.Open {
			t.Errorf("span %d = %+v, want a closed %s on %s under the root", i+1, sp, kind, h.Resource)
		}
	}
	p.Release(1)
}

// TestUnscannedNodeRidesItsChain: a c_objects tuple's type holds no
// reference, so its X lock has no downward step to wait for and joins its
// ancestors' batch: one manager call, one "acquire" span sharing the
// batch's clock, and still one entry-point scan counted. A robot's type does
// hold references, so its S lock follows the scan as a lone AcquireID.
func TestUnscannedNodeRidesItsChain(t *testing.T) {
	p, rec := tracedProto(t, store.PaperDatabase(), lock.Options{})
	if err := p.LockPath(1, store.P("cells", "c1", "c_objects", "o1"), lock.X); err != nil {
		t.Fatal(err)
	}
	if ms := p.Manager().Stats(); ms.Batches != 1 || ms.BatchFastGrants != 6 || ms.Requests != 6 {
		t.Errorf("Batches / BatchFastGrants / Requests = %d / %d / %d, want 1 / 6 / 6", ms.Batches, ms.BatchFastGrants, ms.Requests)
	}
	if st := p.Stats(); st.EntryPointScans != 1 || st.NodeLocks != 1 || st.BatchedLocks != 6 {
		t.Errorf("EntryPointScans / NodeLocks / BatchedLocks = %d / %d / %d, want 1 / 1 / 6", st.EntryPointScans, st.NodeLocks, st.BatchedLocks)
	}
	spans := rec.SpansOf(1)
	if len(spans) != 7 {
		t.Fatalf("span tree:\n%q\nwant the root, 5 upward spans and the node's acquire", spanLines(spans))
	}
	if last := spans[6]; last.Kind != "acquire" || last.Mode != lock.X.String() ||
		!last.Start.Equal(spans[1].Start) || last.Dur != spans[1].Dur {
		t.Errorf("span tree:\n%q\nwant 5 upward spans then the node's acquire, all on the batch's clock", spanLines(spans))
	}
	before := p.Manager().Stats()
	if err := p.LockPath(2, store.P("cells", "c1", "robots", "r1"), lock.S); err != nil {
		t.Fatal(err)
	}
	// The robot's chain, then one chain per effector with the effector's S
	// in it, then the robot's own S.
	if d := p.Manager().Stats().Sub(before); d.Batches != 3 || d.Requests != d.BatchFastGrants+1 {
		t.Errorf("robot S lock: %d batches, %d requests, %d batched, want 3 batches and the robot's S outside them", d.Batches, d.Requests, d.BatchFastGrants)
	}
	assertProtocolInvariants(t, p, 1)
	assertProtocolInvariants(t, p, 2)
}
