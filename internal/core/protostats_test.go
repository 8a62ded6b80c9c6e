package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/schema"
	"colock/internal/store"
)

func TestProtocolStatsCountsRules(t *testing.T) {
	p, _ := newProto(t, Options{})
	if p.Stats() != (ProtocolStats{}) {
		t.Fatalf("fresh protocol has non-zero stats: %+v", p.Stats())
	}

	// X on a robot: upward locks on db/segment/relation/cell (rule 5 order),
	// downward propagation into the two referenced effectors (rule 4), each
	// of which needs its own upward chain.
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Requests != 1 {
		t.Errorf("Requests = %d, want 1", st.Requests)
	}
	if st.NodeLocks < 3 {
		t.Errorf("NodeLocks = %d, want ≥ 3 (robot + 2 effectors)", st.NodeLocks)
	}
	if st.DownwardPropagations != 2 {
		t.Errorf("DownwardPropagations = %d, want 2 (e1, e2)", st.DownwardPropagations)
	}
	if st.EntryPointScans < 3 {
		t.Errorf("EntryPointScans = %d, want ≥ 3 (robot + 2 effectors)", st.EntryPointScans)
	}
	if st.UpwardLocks < 6 {
		t.Errorf("UpwardLocks = %d, want ≥ 6 (two root-to-leaf chains)", st.UpwardLocks)
	}
	if st.Rule4PrimeWeakened != 0 || st.NoFollow != 0 {
		t.Errorf("unexpected rule-4'/no-follow counts: %+v", st)
	}
	// The two effectors share db1/seg2 ancestors: the second chain memoizes.
	if st.MemoHits == 0 {
		t.Error("MemoHits = 0, want > 0 (shared ancestor chains)")
	}
}

func TestProtocolStatsRule4PrimeAndNoFollow(t *testing.T) {
	auth := authz.NewTable(false)
	auth.Grant(1, "cells")
	p, _ := newProto(t, Options{Rule4Prime: true, Authorizer: auth})
	if err := p.LockPath(1, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Rule4PrimeWeakened != 2 {
		t.Errorf("Rule4PrimeWeakened = %d, want 2 (both effectors demoted)", st.Rule4PrimeWeakened)
	}

	if err := p.LockWith(context.Background(), 2, DataNode(store.P("cells", "c2")), lock.X, false, true, 0); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.NoFollow != 1 {
		t.Errorf("NoFollow = %d, want 1", st.NoFollow)
	}
	p.Release(1)
	p.Release(2)
}

func TestProtocolWriteMetrics(t *testing.T) {
	p, _ := newProto(t, Options{})
	if err := p.LockPath(1, store.P("cells", "c1"), lock.S); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	p.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE colock_protocol_ops_total counter",
		`colock_protocol_ops_total{op="requests"} 1`,
		`colock_protocol_ops_total{op="upward_locks"}`,
		`colock_protocol_ops_total{op="downward_propagations"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestCountersComplete checks that the manager's and the protocol's
// Counters list every uint64 field of their stats struct exactly once, each
// under a name of its own — the lists /metrics and .metrics print.
func TestCountersComplete(t *testing.T) {
	var ls lock.Stats
	want := numberFields(&ls)
	checkCounters(t, "lock.Stats", ls.Counters(), want)
	var ps ProtocolStats
	want = numberFields(&ps)
	checkCounters(t, "ProtocolStats", ps.Counters(), want)
}

// numberFields sets every uint64 field of the struct *p to its field index
// plus one and returns the field names by value.
func numberFields(p any) map[uint64]string {
	v := reflect.ValueOf(p).Elem()
	want := make(map[uint64]string)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Uint64 {
			v.Field(i).SetUint(uint64(i + 1))
			want[uint64(i+1)] = v.Type().Field(i).Name
		}
	}
	return want
}

func checkCounters(t *testing.T, typ string, cs []lock.Counter, want map[uint64]string) {
	t.Helper()
	names := make(map[string]bool)
	got := make(map[uint64]int)
	for _, c := range cs {
		if names[c.Name] {
			t.Errorf("%s: counter name %q listed twice", typ, c.Name)
		}
		names[c.Name] = true
		got[c.Value]++
	}
	for v, field := range want {
		if got[v] != 1 {
			t.Errorf("%s.%s appears %d times in Counters(), want 1", typ, field, got[v])
		}
	}
	if len(cs) != len(want) {
		t.Errorf("%s.Counters() lists %d counters, want %d", typ, len(cs), len(want))
	}
}

func TestUnitKindOfClassifier(t *testing.T) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	kindOf := UnitKindOf(nm)
	cases := map[lock.Resource]string{
		"db1":                                    "database",
		"db1/seg1":                               "segment",
		"db1/seg1/cells":                         "relation",
		"db1/seg1/cells/c1":                      "entry-point",
		"db1/seg1/cells/c1/robots":               "HoLU",
		"db1/seg1/cells/c1/robots/r1":            "HeLU",
		"db1/seg1/cells/c1/robots/r1/trajectory": "BLU",
		"db1/seg1/cells/c1/robots/r1/#attrs":     "BLU",
		"db1/seg1/nosuchrel/x/y/z":               "other",
	}
	for r, want := range cases {
		if got := UnitKindLabels[kindOf(r)]; got != want {
			t.Errorf("UnitKindOf(%q) = %s, want %s", r, got, want)
		}
	}
}

// A collector classifying with UnitKindOf keeps each resource id's kind,
// but not "other": a resource of a relation the catalog does not know yet
// is classified again once DDL adds the relation.
func TestCollectorClassifiesRelationAddedLater(t *testing.T) {
	st := store.PaperDatabase()
	cat := st.Catalog()
	nm := NewNamer(cat, false)
	col := obs.NewCollector(obs.Options{KindLabels: UnitKindLabels, KindOf: UnitKindOf(nm)})
	mgr := lock.NewManager(lock.Options{Sinks: []lock.EventSink{col}})
	const res = lock.Resource("db1/seg1/tools/t1/specs")
	acquire := func(txn lock.TxnID) {
		t.Helper()
		if err := mgr.AcquireCtx(context.Background(), txn, res, lock.S); err != nil {
			t.Fatal(err)
		}
		mgr.ReleaseAll(txn)
	}
	acquire(1)
	if s := col.Hist(obs.OpAcquire, lock.S, "other"); s.Count != 1 {
		t.Fatalf("acquire on an unknown relation counted %d times as other, want 1", s.Count)
	}
	tools := &schema.Relation{Name: "tools", Segment: "seg1", Key: "id",
		Type: schema.Tuple(schema.F("id", schema.Str()), schema.F("specs", schema.Set(schema.Str())))}
	if err := cat.AddRelation(tools); err != nil {
		t.Fatal(err)
	}
	acquire(2)
	acquire(3)
	if s := col.Hist(obs.OpAcquire, lock.S, "HoLU"); s.Count != 2 {
		t.Errorf("acquires after the relation was added: %d as HoLU, want 2", s.Count)
	}
	if s := col.Hist(obs.OpAcquire, lock.S, "other"); s.Count != 1 {
		t.Errorf("acquires as other: %d, want still 1", s.Count)
	}
}

// The classifier runs once per event in every sink, so it must not allocate
// — neither on a resource the protocol has named (the name-cache hit), nor on
// the shallow levels, nor after the first look at a resource nobody named.
// It must also agree with the schema walk when BLUs are coalesced.
func TestUnitKindOfZeroAllocs(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		st := store.PaperDatabase()
		nm := NewNamer(st.Catalog(), coalesce)
		kindOf := UnitKindOf(nm)
		named := mustResource(t, nm, DataNode(store.P("cells", "c1", "robots", "r1", "trajectory")))
		resources := []lock.Resource{
			"db1", "db1/seg1/cells", "db1/seg1/cells/c1", named,
			"db1/seg1/cells/c1/c_objects/o1", // never named: walks once, then cached
		}
		want := make([]int, len(resources))
		for i, r := range resources {
			want[i] = kindOf(r)
		}
		if got := UnitKindLabels[want[3]]; got != "BLU" {
			t.Errorf("coalesce=%v: kind of %q = %s, want BLU", coalesce, named, got)
		}
		if got := UnitKindLabels[want[4]]; got != "HeLU" {
			t.Errorf("coalesce=%v: kind of %q = %s, want HeLU", coalesce, resources[4], got)
		}
		allocs := testing.AllocsPerRun(200, func() {
			for i, r := range resources {
				if kindOf(r) != want[i] {
					t.Fatalf("kindOf(%q) changed between calls", r)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("coalesce=%v: UnitKindOf allocates %.1f objects per pass, want 0", coalesce, allocs)
		}
	}
}
