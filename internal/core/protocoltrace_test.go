package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/trace"
)

// A traced S lock on the top of the sharing chain must produce one root span
// whose children mirror the protocol: upward intention locks on the ancestor
// chain, a downward propagation subtree per referenced inner unit, and the
// node acquisition itself.
func TestProtocolSpanTree(t *testing.T) {
	_, st := nestedCatalogAndStore(t)
	nm := NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	rec := trace.NewRecorder(trace.Options{ShardOf: mgr.ShardOf})
	p := NewProtocol(mgr, st, nm, Options{Tracer: rec})

	if err := p.LockPath(1, store.P("assemblies", "a1"), lock.S); err != nil {
		t.Fatal(err)
	}

	spans := rec.SpansOf(1)
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	byKind := make(map[string][]trace.Span)
	var roots []trace.Span
	for _, sp := range spans {
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
		if sp.Parent == 0 {
			roots = append(roots, sp)
		}
		if sp.Open {
			t.Errorf("span still open after return: %+v", sp)
		}
		if sp.Shard != mgr.ShardOf(sp.Resource) {
			t.Errorf("span %s shard = %d, want %d", sp.Resource, sp.Shard, mgr.ShardOf(sp.Resource))
		}
	}
	if len(roots) != 1 || roots[0].Kind != "lock" || roots[0].Resource != "db/s1/assemblies/a1" || roots[0].Mode != "S" {
		t.Fatalf("roots = %+v, want one lock S root on db/s1/assemblies/a1", roots)
	}
	// Ancestors of a1: db, db/s1, db/s1/assemblies — three upward spans for
	// the root call, plus the upward chains of the two downward recursions
	// (parts/p1 and bolts/b1: db, seg, relation each, minus nothing — the
	// memo dedupes only repeats, and db is repeated).
	if len(byKind["upward"]) < 3 {
		t.Errorf("upward spans = %d, want ≥ 3: %+v", len(byKind["upward"]), byKind["upward"])
	}
	// Downward propagation: a1 → parts/p1, and inside it p1 → bolts/b1.
	if len(byKind["downward"]) != 2 {
		t.Fatalf("downward spans = %+v, want 2", byKind["downward"])
	}
	var p1, b1 trace.Span
	for _, sp := range byKind["downward"] {
		switch sp.Resource {
		case "db/s2/parts/p1":
			p1 = sp
		case "db/s3/bolts/b1":
			b1 = sp
		}
	}
	if p1.ID == 0 || b1.ID == 0 {
		t.Fatalf("downward spans = %+v, want parts/p1 and bolts/b1", byKind["downward"])
	}
	if p1.Parent != roots[0].ID {
		t.Errorf("parts/p1 downward span hangs off %d, want root %d", p1.Parent, roots[0].ID)
	}
	if b1.Parent != p1.ID {
		t.Errorf("bolts/b1 downward span hangs off %d, want parts/p1 span %d (nested propagation)", b1.Parent, p1.ID)
	}
	// Every lockable node acquired exactly once.
	acquired := make(map[lock.Resource]bool)
	for _, sp := range byKind["acquire"] {
		if acquired[sp.Resource] {
			t.Errorf("resource %s acquired twice", sp.Resource)
		}
		acquired[sp.Resource] = true
	}
	for _, want := range []lock.Resource{"db/s1/assemblies/a1", "db/s2/parts/p1", "db/s3/bolts/b1"} {
		if !acquired[want] {
			t.Errorf("no acquire span for %s; got %+v", want, byKind["acquire"])
		}
	}
	mgr.ReleaseAll(1)
}

// Rule 4′ demotions are visible in the span kind.
func TestProtocolSpanRule4Prime(t *testing.T) {
	_, st := nestedCatalogAndStore(t)
	nm := NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	rec := trace.NewRecorder(trace.Options{ShardOf: mgr.ShardOf})
	p := NewProtocol(mgr, st, nm, Options{
		Tracer:     rec,
		Rule4Prime: true,
		Authorizer: denyRelation{"bolts"},
	})

	if err := p.LockPath(1, store.P("parts", "p1"), lock.X); err != nil {
		t.Fatal(err)
	}
	var demoted []trace.Span
	for _, sp := range rec.SpansOf(1) {
		if sp.Kind == "downward-rule4prime" {
			demoted = append(demoted, sp)
		}
	}
	if len(demoted) != 1 || demoted[0].Resource != "db/s3/bolts/b1" || demoted[0].Mode != "S" {
		t.Fatalf("rule-4' spans = %+v, want one S demotion on bolts/b1", demoted)
	}
	mgr.ReleaseAll(1)
}

type denyRelation struct{ rel string }

func (d denyRelation) CanModify(txn lock.TxnID, relation string) bool { return relation != d.rel }

// LockWith plumbs a per-acquisition deadline through the protocol chain
// and reports the blocking acquisition in the span tree.
func TestProtocolLockTimeout(t *testing.T) {
	_, st := nestedCatalogAndStore(t)
	nm := NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{Policy: lock.PolicyNone})
	rec := trace.NewRecorder(trace.Options{ShardOf: mgr.ShardOf})
	p := NewProtocol(mgr, st, nm, Options{Tracer: rec})

	if err := p.LockPath(1, store.P("bolts", "b1"), lock.X); err != nil {
		t.Fatal(err)
	}
	err := p.LockWith(context.Background(), 2, DataNode(store.P("bolts", "b1")), lock.X, false, false, 5*time.Millisecond)
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	var sawErr bool
	for _, sp := range rec.SpansOf(2) {
		if sp.Kind == "acquire" && sp.Err != "" {
			sawErr = true
			if sp.Resource != "db/s3/bolts/b1" {
				t.Errorf("failed acquire span on %s, want bolts/b1", sp.Resource)
			}
			if sp.Dur < 5*time.Millisecond {
				t.Errorf("failed acquire span dur = %v, want ≥ 5ms", sp.Dur)
			}
		}
	}
	if !sawErr {
		t.Errorf("no failed acquire span in %+v", rec.SpansOf(2))
	}
	mgr.ReleaseAll(1)
	mgr.ReleaseAll(2)
}
