package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/store"
)

func newProto(t *testing.T, opts Options) (*Protocol, *store.Store) {
	t.Helper()
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	return NewProtocol(mgr, st, nm, opts), st
}

func heldMap(t *testing.T, p *Protocol, txn lock.TxnID) map[string]lock.Mode {
	t.Helper()
	out := make(map[string]lock.Mode)
	for _, h := range p.Manager().HeldLocks(txn) {
		out[string(h.Resource)] = h.Mode
	}
	return out
}

func TestLockAcquiresAncestorIntentions(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1", "trajectory"), lock.S); err != nil {
		t.Fatal(err)
	}
	want := map[string]lock.Mode{
		"db1":                                    lock.IS,
		"db1/seg1":                               lock.IS,
		"db1/seg1/cells":                         lock.IS,
		"db1/seg1/cells/c1":                      lock.IS,
		"db1/seg1/cells/c1/robots":               lock.IS,
		"db1/seg1/cells/c1/robots/r1":            lock.IS,
		"db1/seg1/cells/c1/robots/r1/trajectory": lock.S,
	}
	got := heldMap(t, p, 1)
	if len(got) != len(want) {
		t.Fatalf("held = %v, want %v", got, want)
	}
	for r, m := range want {
		if got[r] != m {
			t.Errorf("held[%s] = %v, want %v", r, got[r], m)
		}
	}
}

func TestLockOrderIsRootToLeaf(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockPath(1, store.P("cells", "c1", "c_objects"), lock.X); err != nil {
		t.Fatal(err)
	}
	held := p.Manager().HeldLocks(1)
	var order []string
	for _, h := range held {
		order = append(order, string(h.Resource))
	}
	want := []string{"db1", "db1/seg1", "db1/seg1/cells", "db1/seg1/cells/c1", "db1/seg1/cells/c1/c_objects"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("acquisition %d = %s, want %s (rule 5: root-to-leaf)", i, order[i], want[i])
		}
	}
}

func TestIntentionModesPerRule(t *testing.T) {
	p, _ := newProto(t, Options{})
	// IS request → IS on parents (rule 1).
	if err := p.LockPath(1, store.P("cells", "c1"), lock.IS); err != nil {
		t.Fatal(err)
	}
	if heldMap(t, p, 1)["db1/seg1/cells"] != lock.IS {
		t.Error("IS request did not IS-lock parents")
	}
	p.Release(1)
	// IX request → IX on parents (rule 2).
	if err := p.LockPath(2, store.P("cells", "c1"), lock.IX); err != nil {
		t.Fatal(err)
	}
	if heldMap(t, p, 2)["db1/seg1/cells"] != lock.IX {
		t.Error("IX request did not IX-lock parents")
	}
}

func TestDatabaseLockNeedsNoParents(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.Lock(1, DatabaseNode(), lock.X); err != nil {
		t.Fatal(err)
	}
	held := p.Manager().HeldLocks(1)
	if len(held) != 1 || held[0].Resource != "db1" || held[0].Mode != lock.X {
		t.Errorf("held = %v", held)
	}
}

func TestProtocolRejectsSIXAndInvalid(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.Lock(1, DatabaseNode(), lock.SIX); err == nil {
		t.Error("SIX accepted (the protocol issues only IS/IX/S/X)")
	}
	if err := p.Lock(1, DatabaseNode(), lock.None); err == nil {
		t.Error("None accepted")
	}
	if err := p.LockPath(1, store.P("nope", "x"), lock.S); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestDownwardPropagationOnS: S on robot r1 S-locks the entry points of its
// dependent inner units (rule 3) with IS upward propagation into their
// superunit (segment seg2, relation effectors).
func TestDownwardPropagationOnS(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.S); err != nil {
		t.Fatal(err)
	}
	got := heldMap(t, p, 1)
	for r, m := range map[string]lock.Mode{
		"db1/seg2":              lock.IS,
		"db1/seg2/effectors":    lock.IS,
		"db1/seg2/effectors/e1": lock.S,
		"db1/seg2/effectors/e2": lock.S,
	} {
		if got[r] != m {
			t.Errorf("held[%s] = %v, want %v", r, got[r], m)
		}
	}
	if _, ok := got["db1/seg2/effectors/e3"]; ok {
		t.Error("e3 locked although not reachable from r1")
	}
}

// TestDownwardPropagationRule4: without authorization cooperation, X on a
// referencing node X-locks all dependent entry points (plain rule 4).
func TestDownwardPropagationRule4(t *testing.T) {
	p, _ := newProto(t, Options{Rule4Prime: false})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	got := heldMap(t, p, 1)
	if got["db1/seg2/effectors/e1"] != lock.X || got["db1/seg2/effectors/e2"] != lock.X {
		t.Errorf("rule 4 must X-lock entry points: %v", got)
	}
	if got["db1/seg2/effectors"] != lock.IX || got["db1/seg2"] != lock.IX {
		t.Errorf("upward propagation for X must be IX: %v", got)
	}
}

// TestDownwardPropagationRule4Prime: with rule 4′ and no modify right on the
// library, X on the robot only S-locks the effectors.
func TestDownwardPropagationRule4Prime(t *testing.T) {
	auth := authz.NewTable(false)
	auth.Grant(1, "cells")
	p, _ := newProto(t, Options{Rule4Prime: true, Authorizer: auth})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	got := heldMap(t, p, 1)
	if got["db1/seg2/effectors/e1"] != lock.S || got["db1/seg2/effectors/e2"] != lock.S {
		t.Errorf("rule 4' must S-lock non-modifiable entry points: %v", got)
	}
	if got["db1/seg2/effectors"] != lock.IS {
		t.Errorf("upward propagation for S must be IS: %v", got)
	}
}

// TestRule4PrimeModifiableStaysX: a transaction WITH the modify right gets X
// on the entry points even under rule 4′.
func TestRule4PrimeModifiableStaysX(t *testing.T) {
	auth := authz.NewTable(false)
	auth.Grant(1, "cells")
	auth.Grant(1, "effectors")
	p, _ := newProto(t, Options{Rule4Prime: true, Authorizer: auth})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	got := heldMap(t, p, 1)
	if got["db1/seg2/effectors/e1"] != lock.X {
		t.Errorf("modifiable unit not X-locked: %v", got)
	}
}

// TestFromTheSideAccessIsVisible is the paper's protocol-oriented problem
// (§3.2.2): T1 locks effectors via robot r1; T2 arrives "from the side"
// through the effectors relation itself and must see the conflict.
func TestFromTheSideAccessIsVisible(t *testing.T) {
	p, _ := newProto(t, Options{})
	// T1: X on robot r1 → X on e1, e2 (rule 4, AllowAll authorizer).
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	// T2: direct S on effector e1 must block until T1 releases.
	done := make(chan error, 1)
	go func() { done <- p.LockPath(2, store.P("effectors", "e1"), lock.S) }()
	select {
	case err := <-done:
		t.Fatalf("from-the-side access not blocked: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	p.Release(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.Release(2)

	// And the mirror image: T3 X-locks effector e2 directly; T4 reading
	// robot r2 (which references e2) must block on the downward S.
	if err := p.LockPath(3, store.P("effectors", "e2"), lock.X); err != nil {
		t.Fatal(err)
	}
	done4 := make(chan error, 1)
	go func() { done4 <- p.LockPath(4, store.P("cells", "c1", "robots", "r2"), lock.S) }()
	select {
	case err := <-done4:
		t.Fatalf("reader not blocked by library X lock: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	p.Release(3)
	if err := <-done4; err != nil {
		t.Fatal(err)
	}
}

// TestDisjointEqualsTraditional: §4.4.2.1 — "In case of disjoint complex
// objects no inner units exist. So ... the above lock protocol is identical
// to the traditional one": no seg2/effectors locks appear when locking only
// c_objects (a disjoint part).
func TestDisjointEqualsTraditional(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockPath(1, store.P("cells", "c1", "c_objects", "o1"), lock.X); err != nil {
		t.Fatal(err)
	}
	for r := range heldMap(t, p, 1) {
		if strings.Contains(r, "seg2") || strings.Contains(r, "effectors") {
			t.Errorf("disjoint access locked shared data: %s", r)
		}
	}
}

// TestNestedDownwardPropagation: X on an object whose inner unit itself
// references deeper common data propagates transitively.
func TestNestedDownwardPropagation(t *testing.T) {
	cat, st := nestedCatalogAndStore(t)
	nm := NewNamer(cat, false)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})
	if err := p.LockPath(1, store.P("assemblies", "a1"), lock.X); err != nil {
		t.Fatal(err)
	}
	got := heldMap(t, p, 1)
	if got["db/s2/parts/p1"] != lock.X {
		t.Errorf("depth-1 entry point: %v", got["db/s2/parts/p1"])
	}
	if got["db/s3/bolts/b1"] != lock.X {
		t.Errorf("depth-2 entry point: %v", got["db/s3/bolts/b1"])
	}
	if got["db/s2"] != lock.IX || got["db/s3"] != lock.IX {
		t.Errorf("superunit spines not intention-locked: %v", got)
	}
}

// TestSharedDiamondLockedOnce: two refs to the same target produce one lock
// request (the requested map dedupes).
func TestSharedDiamondLockedOnce(t *testing.T) {
	p, _ := newProto(t, Options{})
	before := p.Manager().Stats()
	if err := p.LockPath(1, store.P("cells", "c1"), lock.S); err != nil {
		t.Fatal(err)
	}
	d := p.Manager().Stats().Sub(before)
	// db, seg1, cells, c1 + seg2, effectors, e1, e2, e3 = 9 grants; e2 must
	// not be requested twice.
	if d.Grants != 9 {
		t.Errorf("grants = %d, want 9", d.Grants)
	}
	if d.Regrants != 0 || d.Conversions != 0 {
		t.Errorf("redundant requests: %+v", d)
	}
}

func TestEffectiveMode(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		node Node
		want lock.Mode
	}{
		{DataNode(store.P("cells", "c1", "robots", "r1")), lock.X},
		{DataNode(store.P("cells", "c1", "robots", "r1", "trajectory")), lock.X}, // implicit via r1
		{DataNode(store.P("cells", "c1", "robots", "r2")), lock.None},
		{DataNode(store.P("cells", "c1")), lock.IX},
		{DataNode(store.P("effectors", "e1")), lock.X},         // downward propagation
		{DataNode(store.P("effectors", "e1", "tool")), lock.X}, // implicit via e1
		{DataNode(store.P("effectors")), lock.IX},              // upward propagation
		{SegmentNode("seg2"), lock.IX},
	}
	for _, c := range cases {
		got, err := p.EffectiveMode(1, c.node)
		if err != nil {
			t.Errorf("%v: %v", c.node, err)
			continue
		}
		if got != c.want {
			t.Errorf("EffectiveMode(%v) = %v, want %v", c.node, got, c.want)
		}
	}
}

func TestLockLongIsDurable(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockWith(context.Background(), 1, DataNode(store.P("cells", "c1")), lock.X, true, false, 0); err != nil {
		t.Fatal(err)
	}
	snap := p.Manager().Snapshot()
	// Every lock of the chain (including propagated ones) must be durable:
	// db, seg1, cells, c1, seg2, effectors, e1..e3.
	if len(snap) != 9 {
		t.Errorf("durable locks = %d, want 9: %v", len(snap), snap)
	}
}

// TestCoalescedBLUs: with footnote-3 coalescing, the atomic attributes of
// one tuple level share a BLU resource, while references keep their own.
func TestCoalescedBLUs(t *testing.T) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), true)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})

	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1", "robot_id"), lock.S); err != nil {
		t.Fatal(err)
	}
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1", "trajectory"), lock.S); err != nil {
		t.Fatal(err)
	}
	got := heldMap(t, p, 1)
	if _, ok := got["db1/seg1/cells/c1/robots/r1/#attrs"]; !ok {
		t.Errorf("no coalesced BLU resource: %v", got)
	}
	if _, ok := got["db1/seg1/cells/c1/robots/r1/robot_id"]; ok {
		t.Error("per-attribute BLU used despite coalescing")
	}
	st2 := p.Manager().Stats()
	// Second S request must be a regrant on the shared BLU.
	if st2.Regrants == 0 {
		t.Errorf("expected regrant on coalesced BLU: %+v", st2)
	}
	// References are NOT coalesced.
	r, err := nm.Resource(DataNode(store.P("cells", "c1", "robots", "r1", "effectors", "e1")))
	if err != nil {
		t.Fatal(err)
	}
	if r != "db1/seg1/cells/c1/robots/r1/effectors/e1" {
		t.Errorf("ref BLU resource = %s", r)
	}
}

// TestHierarchyInvariant: after any protocol lock, the transaction holds a
// sufficient intention lock on every ancestor of every held resource.
func TestHierarchyInvariant(t *testing.T) {
	p, _ := newProto(t, Options{})
	targets := []struct {
		path store.Path
		mode lock.Mode
	}{
		{store.P("cells", "c1", "robots", "r1"), lock.X},
		{store.P("cells", "c1", "c_objects"), lock.S},
		{store.P("effectors", "e3"), lock.X},
		{store.P("cells"), lock.IS},
		{store.P("cells", "c1", "robots", "r2", "effectors", "e3"), lock.S},
	}
	for _, tg := range targets {
		if err := p.LockPath(1, tg.path, tg.mode); err != nil {
			t.Fatal(err)
		}
	}
	assertProtocolInvariants(t, p, 1)
}

// assertProtocolInvariants checks the two structural invariants of the
// protocol for one transaction: (a) ancestor intention coverage, (b) every
// entry point reachable under an S/X-held node is held ≥ S.
func assertProtocolInvariants(t *testing.T, p *Protocol, txn lock.TxnID) {
	t.Helper()
	held := p.Manager().HeldLocks(txn)
	byRes := make(map[lock.Resource]lock.Mode, len(held))
	for _, h := range held {
		byRes[h.Resource] = h.Mode
	}
	for _, h := range held {
		parts := strings.Split(string(h.Resource), "/")
		need := h.Mode.IntentionFor()
		for i := 1; i < len(parts); i++ {
			anc := lock.Resource(strings.Join(parts[:i], "/"))
			if !byRes[anc].Covers(need) {
				t.Errorf("invariant: %s held %v but ancestor %s holds %v (< %v)",
					h.Resource, h.Mode, anc, byRes[anc], need)
			}
		}
	}
}
