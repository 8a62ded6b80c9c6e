package lock

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Wait events carry the blocker set computed under the shard latch at
// enqueue time: incompatible holders plus incompatible earlier waiters,
// sorted by transaction ID.
func TestWaitEventBlockers(t *testing.T) {
	sink := &recordingSink{}
	m := NewManager(Options{Policy: PolicyNone, Sinks: []EventSink{sink}})
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "a", S); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(context.Background(), 3, "a", X) }()
	for i := 0; m.WaitingTxns() == 0; i++ {
		if i > 2000 {
			t.Fatal("txn 3 never queued")
		}
		time.Sleep(time.Millisecond)
	}

	sink.mu.Lock()
	var wait *Event
	for i := range sink.events {
		if sink.events[i].Kind == "wait" {
			wait = &sink.events[i]
		}
	}
	if wait == nil {
		t.Fatalf("no wait event in %v", sink.kinds())
	}
	if len(wait.Blockers) != 2 || wait.Blockers[0] != 1 || wait.Blockers[1] != 2 {
		t.Errorf("wait blockers = %v, want [1 2]", wait.Blockers)
	}
	sink.mu.Unlock()

	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

// A wait-die victim never queues, so its victim event must carry the
// blocker set directly.
func TestWaitDieVictimBlockers(t *testing.T) {
	sink := &recordingSink{}
	m := NewManager(Options{Policy: PolicyWaitDie, Sinks: []EventSink{sink}})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	err := m.AcquireCtx(context.Background(), 2, "a", X)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("young requester got %v, want ErrDeadlock", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var victim *Event
	for i := range sink.events {
		if sink.events[i].Kind == "victim" {
			victim = &sink.events[i]
		}
	}
	if victim == nil {
		t.Fatalf("no victim event in %v", sink.kinds())
	}
	if len(victim.Blockers) != 1 || victim.Blockers[0] != 1 {
		t.Errorf("victim blockers = %v, want [1]", victim.Blockers)
	}
}

// distinctShardResources returns n resources that land on pairwise distinct
// lock-table stripes of m, interning them.
func distinctShardResources(t *testing.T, m *Manager, n int) []Resource {
	t.Helper()
	var out []Resource
	used := make(map[int]bool)
	for i := 0; len(out) < n && i < 10000; i++ {
		r := Resource(fmt.Sprintf("res%d", i))
		m.Intern(r)
		if s := m.ShardOf(r); !used[s] {
			used[s] = true
			out = append(out, r)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d resources on distinct shards", n)
	}
	return out
}

// WaitsForDOT with a three-transaction cycle whose resources span three
// different lock-table shards: every member is marked on-cycle, the
// youngest is the victim, and its outgoing cycle edge is labeled.
func TestWaitsForDOTThreeTxnCycleAcrossShards(t *testing.T) {
	m := NewManager(Options{Policy: PolicyNone})
	rs := distinctShardResources(t, m, 3)
	a, b, c := rs[0], rs[1], rs[2]

	if err := m.AcquireCtx(context.Background(), 1, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, b, X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 3, c, X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 3)
	go func() { errs <- m.AcquireCtx(context.Background(), 1, b, X) }()
	go func() { errs <- m.AcquireCtx(context.Background(), 2, c, X) }()
	go func() { errs <- m.AcquireCtx(context.Background(), 3, a, X) }()
	for i := 0; m.WaitingTxns() < 3; i++ {
		if i > 2000 {
			t.Fatal("three-way deadlock never formed")
		}
		time.Sleep(time.Millisecond)
	}

	edges := m.WaitsForEdges()
	if len(edges) != 3 {
		t.Fatalf("waits-for edges = %+v, want 3", edges)
	}
	wantEdges := map[[2]TxnID]Resource{
		{1, 2}: b, {2, 3}: c, {3, 1}: a,
	}
	shards := make(map[int]bool)
	for _, e := range edges {
		if wantEdges[[2]TxnID{e.From, e.To}] != e.Resource {
			t.Errorf("unexpected edge %+v", e)
		}
		shards[m.ShardOf(e.Resource)] = true
	}
	if len(shards) != 3 {
		t.Errorf("cycle spans %d shards, want 3", len(shards))
	}

	dot := m.WaitsForDOT()
	for _, want := range []string{
		`t1 [label="txn 1", color=red];`,
		`t2 [label="txn 2", color=red];`,
		`t3 [label="txn 3 (victim)", color=red, style=bold];`,
		"(victim edge)",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// The victim edge is txn 3's outgoing cycle edge (t3 → t1).
	if !strings.Contains(dot, "t3 -> t1 [label=\"X "+string(a)+" (victim edge)\", color=red, style=bold];") {
		t.Errorf("DOT missing victim edge t3 -> t1:\n%s", dot)
	}

	// Hand-resolve: drop the victim's held locks, then unwind the chain
	// (txn 2 gets c, txn 1 gets b, and finally txn 3's still-queued request
	// for a is granted once txn 1 finishes).
	m.ReleaseAll(3)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
