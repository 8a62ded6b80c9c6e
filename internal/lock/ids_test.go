package lock

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// Tests for the resource id space (Intern, Name) and IDMap.

// TestInternConcurrent: goroutines interning overlapping name sets agree on
// one id per name, the ids are dense, and every id names its resource.
func TestInternConcurrent(t *testing.T) {
	m := NewManager(Options{})
	const workers, per = 8, 300
	got := make([]map[Resource]ResID, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make(map[Resource]ResID)
			for i := 0; i < per; i++ {
				r := Resource(fmt.Sprintf("db/seg/r%d", g*per/2+i)) // half shared with the next worker
				id := m.Intern(r)
				if prev, ok := ids[r]; ok && prev != id {
					t.Errorf("worker %d: %q interned as %d, then %d", g, r, prev, id)
				}
				ids[r] = id
				if n := m.Name(id); n != r {
					t.Errorf("worker %d: Name(Intern(%q)) = %q", g, r, n)
				}
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()
	all := make(map[Resource]ResID)
	for g, ids := range got {
		for r, id := range ids {
			if prev, ok := all[r]; ok && prev != id {
				t.Errorf("%q has ids %d and %d (worker %d)", r, prev, id, g)
			}
			all[r] = id
		}
	}
	seen := make(map[ResID]Resource)
	for r, id := range all {
		if o, dup := seen[id]; dup {
			t.Errorf("id %d names both %q and %q", id, o, r)
		}
		seen[id] = r
		if int(id) >= len(all) {
			t.Errorf("%q has id %d, past the %d names interned", r, id, len(all))
		}
	}
	if n := m.Name(ResID(len(all))); n != "" {
		t.Errorf("Name of an id never handed out = %q, want empty", n)
	}
}

// TestShardOfDoesNotIntern: ShardOf answers for names in the id space and
// adds none.
func TestShardOfDoesNotIntern(t *testing.T) {
	m := newManager(Options{}, 4)
	for i := 0; i < 3; i++ {
		m.Intern(Resource(fmt.Sprintf("r%d", i)))
	}
	if got := m.ShardOf("r2"); got != 2 {
		t.Errorf("ShardOf(r2) = %d, want 2 (id 2 of 4 stripes)", got)
	}
	if got := m.ShardOf("never"); got != 0 {
		t.Errorf("ShardOf of an unknown name = %d, want 0", got)
	}
	if id := m.Intern("next"); id != 3 {
		t.Errorf("ShardOf interned a name: the next id is %d, want 3", id)
	}
}

// TestIDMapMatchesMap drives IDMap and a Go map through the same random
// operations, over a narrow id range (long probe runs, deletes in the middle
// of them) and a wide one.
func TestIDMapMatchesMap(t *testing.T) {
	for _, span := range []int{40, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(span)))
		var m IDMap[int]
		ref := make(map[ResID]int)
		for step := 0; step < 20000; step++ {
			id := ResID(rng.Intn(span))
			switch op := rng.Intn(10); {
			case op < 5:
				m.Put(id, step)
				ref[id] = step
			case op < 8:
				_, want := ref[id]
				if got := m.delete(id); got != want {
					t.Fatalf("span %d step %d: delete(%d) = %v, want %v", span, step, id, got, want)
				}
				delete(ref, id)
			case op < 9 && step%500 == 0:
				m.Clear()
				clear(ref)
			default:
				v, ok := m.Get(id)
				w, wok := ref[id]
				if ok != wok || v != w {
					t.Fatalf("span %d step %d: Get(%d) = %d,%v want %d,%v", span, step, id, v, ok, w, wok)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("span %d step %d: Len = %d, want %d", span, step, m.Len(), len(ref))
			}
		}
		for id, w := range ref {
			if v, ok := m.Get(id); !ok || v != w {
				t.Fatalf("span %d: Get(%d) = %d,%v at the end, want %d", span, id, v, ok, w)
			}
		}
	}
}

// TestIntrospectionNames: on a scripted scenario — a shared lock, a durable
// one, a blocked request, an end-of-transaction release — every name-facing
// read (HeldLocks, SnapshotQueues, WaitsForEdges, Snapshot, the event
// stream) reports the resources by the names the requests used, and each
// event's shard is ShardOf its resource.
func TestIntrospectionNames(t *testing.T) {
	sink := &recordingSink{}
	m := NewManager(Options{Sinks: []EventSink{sink}, Policy: PolicyNone})
	ctx := context.Background()
	for _, q := range []struct {
		txn  TxnID
		r    Resource
		mode Mode
		opt  AcquireOption
	}{
		{1, "db/a", S, AcquireOption{}},
		{1, "db/b", X, WithDurable()},
		{3, "db/c", IS, AcquireOption{}},
	} {
		if err := m.AcquireCtx(ctx, q.txn, q.r, q.mode, q.opt); err != nil {
			t.Fatal(err)
		}
	}
	waited := acquireParked(t, m, 2, "db/a", X)

	held := m.HeldLocks(1)
	if len(held) != 2 || held[0].Resource != "db/a" || held[0].Mode != S ||
		held[1].Resource != "db/b" || held[1].Mode != X || !held[1].Durable {
		t.Errorf("HeldLocks(1) = %+v", held)
	}
	var queues []string
	for _, q := range m.SnapshotQueues() {
		queues = append(queues, fmt.Sprintf("%s granted=%d waiting=%d", q.Resource, len(q.Granted), len(q.Waiting)))
	}
	if want := []string{"db/a granted=1 waiting=1", "db/b granted=1 waiting=0", "db/c granted=1 waiting=0"}; !reflect.DeepEqual(queues, want) {
		t.Errorf("SnapshotQueues = %v, want %v", queues, want)
	}
	if edges := m.WaitsForEdges(); !reflect.DeepEqual(edges, []WaitEdge{{From: 2, To: 1, Resource: "db/a", Mode: X}}) {
		t.Errorf("WaitsForEdges = %+v", edges)
	}
	if snap := m.Snapshot(); !reflect.DeepEqual(snap, []DurableLock{{Txn: 1, Resource: "db/b", Mode: X}}) {
		t.Errorf("Snapshot = %+v", snap)
	}

	m.ReleaseAll(1)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	m.ReleaseAll(3)

	sink.mu.Lock()
	defer sink.mu.Unlock()
	var got []string
	for _, e := range sink.events {
		if e.Kind == "release-all" {
			got = append(got, fmt.Sprintf("release-all %d %q", e.Txn, e.Resource))
			continue
		}
		if e.Shard != m.ShardOf(e.Resource) {
			t.Errorf("%s %s: shard %d, ShardOf says %d", e.Kind, e.Resource, e.Shard, m.ShardOf(e.Resource))
		}
		if e.ID != m.Intern(e.Resource) {
			t.Errorf("%s %s: id %d, Intern says %d", e.Kind, e.Resource, e.ID, m.Intern(e.Resource))
		}
		got = append(got, fmt.Sprintf("%s %d %s %v", e.Kind, e.Txn, e.Resource, e.Mode))
	}
	// The requests' events come in request order; the releases' in sweep
	// order, which is not fixed, so they compare as a set. A sweep's release
	// events name what it dropped; its summary names nothing.
	want := []string{
		"grant 1 db/a S", "grant 1 db/b X", "grant 3 db/c IS", "wait 2 db/a X",
		"grant 2 db/a X", "release 1 db/a S", "release 1 db/b X", `release-all 1 ""`,
		"release 2 db/a X", `release-all 2 ""`,
		"release 3 db/c IS", `release-all 3 ""`,
	}
	if len(got) > 4 {
		sort.Strings(got[4:])
	}
	sort.Strings(want[4:])
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events:\n got %q\nwant %q", got, want)
	}
}
