package core

import (
	"testing"

	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
)

// heldMode is the mode txn holds on r: Intern plus the manager's id query.
func heldMode(mgr *lock.Manager, txn lock.TxnID, r lock.Resource) lock.Mode {
	return mgr.HeldModeID(txn, mgr.Intern(r))
}

// holders returns the transactions holding r and their modes, read from the
// queue snapshot that /queues serves.
func holders(mgr *lock.Manager, r lock.Resource) map[lock.TxnID]lock.Mode {
	out := make(map[lock.TxnID]lock.Mode)
	for _, q := range mgr.SnapshotQueues() {
		if q.Resource == r {
			for _, g := range q.Granted {
				out[g.Txn] = g.Mode
			}
		}
	}
	return out
}

// mustResource is nm.Resource for a node the test knows to be valid.
func mustResource(t testing.TB, nm *Namer, n Node) lock.Resource {
	t.Helper()
	r, err := nm.Resource(n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// nestedCatalogAndStore builds a three-level sharing chain for tests:
// assemblies (seg s1) → parts (seg s2) → bolts (seg s3), with one object
// each: a1 → p1 → b1.
func nestedCatalogAndStore(t *testing.T) (*schema.Catalog, *store.Store) {
	t.Helper()
	cat := schema.NewCatalog("db")
	if err := cat.AddRelation(&schema.Relation{
		Name: "bolts", Segment: "s3", Key: "id",
		Type: schema.Tuple(schema.F("id", schema.Str())),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRelation(&schema.Relation{
		Name: "parts", Segment: "s2", Key: "id",
		Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("bolts", schema.Set(schema.Ref("bolts"))),
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddRelation(&schema.Relation{
		Name: "assemblies", Segment: "s1", Key: "id",
		Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("parts", schema.Set(schema.Ref("parts"))),
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	st := store.New(cat)
	if err := st.Insert("bolts", "b1", store.NewTuple().Set("id", store.Str("b1"))); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("parts", "p1", store.NewTuple().Set("id", store.Str("p1")).
		Set("bolts", store.NewSet().Add("b1", store.Ref{Relation: "bolts", Key: "b1"}))); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("assemblies", "a1", store.NewTuple().Set("id", store.Str("a1")).
		Set("parts", store.NewSet().Add("p1", store.Ref{Relation: "parts", Key: "p1"}))); err != nil {
		t.Fatal(err)
	}
	return cat, st
}
