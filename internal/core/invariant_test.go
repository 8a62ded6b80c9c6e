package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
)

// Property-based protocol tests: over randomly generated databases and lock
// sequences, the protocol must always maintain
//
//	(P1) ancestor intentions: a held lock implies sufficient intention
//	     locks on every ancestor (assertProtocolInvariants);
//	(P2) entry-point coverage: whenever a transaction holds S/X (explicitly
//	     or implicitly) on a node, every entry point reachable from that
//	     node's subtree is held in at least S by the same transaction.

// buildRandomDB creates a small random two-relation database with sharing:
// relation "top" objects reference relation "lib" objects.
func buildRandomDB(t *testing.T, seed int64, tops, libs, refsPer int) *store.Store {
	t.Helper()
	cat := schema.NewCatalog("rdb")
	if err := cat.AddRelation(&schema.Relation{
		Name: "lib", Segment: "s2", Key: "id",
		Type: schema.Tuple(schema.F("id", schema.Str()), schema.F("v", schema.Int())),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRelation(&schema.Relation{
		Name: "top", Segment: "s1", Key: "id",
		Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("items", schema.Set(schema.Tuple(
				schema.F("item_id", schema.Str()),
				schema.F("parts", schema.Set(schema.Ref("lib"))),
			))),
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	st := store.New(cat)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < libs; i++ {
		id := fmt.Sprintf("l%d", i)
		if err := st.Insert("lib", id, store.NewTuple().
			Set("id", store.Str(id)).Set("v", store.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tops; i++ {
		id := fmt.Sprintf("t%d", i)
		items := store.NewSet()
		for j := 0; j < 2; j++ {
			parts := store.NewSet()
			for len(parts.IDs()) < refsPer && len(parts.IDs()) < libs {
				lid := fmt.Sprintf("l%d", rng.Intn(libs))
				parts.Add(lid, store.Ref{Relation: "lib", Key: lid})
			}
			iid := fmt.Sprintf("i%d", j)
			items.Add(iid, store.NewTuple().
				Set("item_id", store.Str(iid)).Set("parts", parts))
		}
		if err := st.Insert("top", id, store.NewTuple().
			Set("id", store.Str(id)).Set("items", items)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	return st
}

// randomNode picks a random lockable node of the random database.
func randomNode(rng *rand.Rand, tops, libs int) Node {
	switch rng.Intn(8) {
	case 0:
		return DataNode(store.P("top"))
	case 1:
		return DataNode(store.P("lib"))
	case 2:
		return DataNode(store.P("lib", fmt.Sprintf("l%d", rng.Intn(libs))))
	case 3:
		return DataNode(store.P("top", fmt.Sprintf("t%d", rng.Intn(tops))))
	case 4:
		return DataNode(store.P("top", fmt.Sprintf("t%d", rng.Intn(tops)), "items"))
	case 5:
		return DataNode(store.P("top", fmt.Sprintf("t%d", rng.Intn(tops)), "items", fmt.Sprintf("i%d", rng.Intn(2))))
	case 6:
		return DataNode(store.P("top", fmt.Sprintf("t%d", rng.Intn(tops)), "items", fmt.Sprintf("i%d", rng.Intn(2)), "parts"))
	default:
		return SegmentNode([]string{"s1", "s2"}[rng.Intn(2)])
	}
}

// assertEntryPointCoverage checks property P2 for a transaction.
func assertEntryPointCoverage(t *testing.T, p *Protocol, st *store.Store, txn lock.TxnID) {
	t.Helper()
	for _, h := range p.Manager().HeldLocks(txn) {
		if h.Mode != lock.S && h.Mode != lock.X {
			continue
		}
		n := nodeFromResource(t, p, string(h.Resource))
		entries, err := EntryPointsUnder(st, p.nm, n)
		if err != nil {
			t.Fatalf("entry points under %s: %v", h.Resource, err)
		}
		for _, ep := range entries {
			em, err := p.EffectiveMode(txn, DataNode(ep))
			if err != nil {
				t.Fatal(err)
			}
			if !em.Covers(lock.S) {
				t.Errorf("P2 violated: %v on %s but entry point %s only %v",
					h.Mode, h.Resource, ep, em)
			}
		}
	}
}

// nodeFromResource reverses the Namer's naming for the test databases
// (db/segment/relation/...path).
func nodeFromResource(t *testing.T, p *Protocol, res string) Node {
	t.Helper()
	parts := strings.Split(res, "/")
	switch len(parts) {
	case 1:
		return DatabaseNode()
	case 2:
		return SegmentNode(parts[1])
	default:
		return DataNode(store.Path(parts[2:]))
	}
}

func TestProtocolInvariantsProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		const tops, libs = 4, 5
		st := buildRandomDB(t, seed, tops, libs, 2)
		nm := NewNamer(st.Catalog(), false)
		p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))

		txn := lock.TxnID(1)
		ops := int(nOps%12) + 1
		for i := 0; i < ops; i++ {
			n := randomNode(rng, tops, libs)
			mode := []lock.Mode{lock.IS, lock.IX, lock.S, lock.X}[rng.Intn(4)]
			if err := p.Lock(txn, n, mode); err != nil {
				t.Logf("lock %v %v: %v", n, mode, err)
				return false
			}
		}
		assertProtocolInvariants(t, p, txn)
		assertEntryPointCoverage(t, p, st, txn)
		p.Release(txn)
		return p.Manager().LockCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeEscalationPreservesInvariants: random coarse lock + random keeps,
// then both properties must still hold.
func TestDeEscalationPreservesInvariants(t *testing.T) {
	f := func(seed int64, keepBits uint8) bool {
		const tops, libs = 3, 4
		st := buildRandomDB(t, seed, tops, libs, 2)
		nm := NewNamer(st.Catalog(), false)
		p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{})
		rng := rand.New(rand.NewSource(seed ^ 0xface))

		obj := store.P("top", fmt.Sprintf("t%d", rng.Intn(tops)))
		mode := []lock.Mode{lock.S, lock.X}[rng.Intn(2)]
		if err := p.LockPath(1, obj, mode); err != nil {
			return false
		}
		var keep []store.Path
		if keepBits&1 != 0 {
			keep = append(keep, obj.Child("items").Child("i0"))
		}
		if keepBits&2 != 0 {
			keep = append(keep, obj.Child("items").Child("i1").Child("parts"))
		}
		if err := p.DeEscalate(1, DataNode(obj), keep); err != nil {
			return false
		}
		assertProtocolInvariants(t, p, 1)
		assertEntryPointCoverage(t, p, st, 1)
		// The coarse lock is gone.
		res := mustResource(t, p.nm, DataNode(obj))
		if got := heldMode(p.Manager(), 1, res); got == lock.S || got == lock.X {
			return false
		}
		p.Release(1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTwoTxnCompatibilityProperty: two transactions lock random nodes
// sequentially with TryAcquire semantics (skipping conflicts); afterwards no
// node may have incompatible effective modes.
func TestTwoTxnCompatibilityProperty(t *testing.T) {
	const tops, libs = 3, 4
	for seed := int64(0); seed < 15; seed++ {
		st := buildRandomDB(t, seed, tops, libs, 2)
		nm := NewNamer(st.Catalog(), false)
		mgr := lock.NewManager(lock.Options{})
		p := NewProtocol(mgr, st, nm, Options{})
		rng := rand.New(rand.NewSource(seed * 31))

		// Interleave ops of txn 1 and 2; on conflict the op simply blocks —
		// to keep this single-threaded we run each op in a goroutine with
		// the lock manager's TryAcquire... instead we serialize: each op
		// either succeeds immediately or is skipped via a probe.
		for i := 0; i < 10; i++ {
			txn := lock.TxnID(i%2 + 1)
			n := randomNode(rng, tops, libs)
			mode := []lock.Mode{lock.IS, lock.IX, lock.S, lock.X}[rng.Intn(4)]
			if !probeCompatible(p, st, txn, n, mode) {
				continue
			}
			if err := p.Lock(txn, n, mode); err != nil {
				t.Fatalf("seed %d: lock after probe failed: %v", seed, err)
			}
		}
		// Invariant: on every held resource, the granted group is
		// compatible (manager-level) AND effective modes agree.
		for _, h := range mgr.HeldLocks(1) {
			n := nodeFromResource(t, p, string(h.Resource))
			m1, err := p.EffectiveMode(1, n)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := p.EffectiveMode(2, n)
			if err != nil {
				t.Fatal(err)
			}
			if !m1.Compatible(m2) {
				t.Errorf("seed %d: incompatible effective modes on %s: %v vs %v",
					seed, h.Resource, m1, m2)
			}
		}
		mgr.ReleaseAll(1)
		mgr.ReleaseAll(2)
	}
}

// probeCompatible conservatively predicts whether the full protocol lock
// (including ancestors and propagation) would be granted without blocking.
func probeCompatible(p *Protocol, st *store.Store, txn lock.TxnID, n Node, mode lock.Mode) bool {
	check := func(nn Node, m lock.Mode) bool {
		res, err := p.nm.Resource(nn)
		if err != nil {
			return false
		}
		for holder, hm := range holders(p.Manager(), res) {
			if holder != txn && !m.Compatible(hm) {
				return false
			}
		}
		return true
	}
	anc, err := ancestors(p.nm, n)
	if err != nil {
		return false
	}
	for _, a := range anc {
		if !check(a, mode.IntentionFor()) {
			return false
		}
	}
	if !check(n, mode) {
		return false
	}
	if mode == lock.S || mode == lock.X {
		entries, err := EntryPointsUnder(st, p.nm, n)
		if err != nil {
			return false
		}
		for _, ep := range entries {
			epAnc, err := ancestors(p.nm, DataNode(ep))
			if err != nil {
				return false
			}
			for _, a := range epAnc {
				if !check(a, mode.IntentionFor()) {
					return false
				}
			}
			if !check(DataNode(ep), mode) {
				return false
			}
		}
	}
	return true
}
