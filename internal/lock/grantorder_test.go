package lock

import (
	"context"
	"fmt"
	"testing"
)

// Grant order, as the introspection reports it: HeldLocks lists one
// transaction's locks in the order they were granted (a conversion counts as
// a new grant; a durability upgrade or a downgrade does not), and
// SnapshotQueues lists one resource's holders in the order they were
// granted, whatever their transaction ids. Both hold across table stripes
// and however many holders a resource has.

func TestHeldLocksInAcquisitionOrder(t *testing.T) {
	ctx := context.Background()
	m := newManager(Options{}, 4)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AcquireCtx(ctx, 1, "r3", S))
	must(m.AcquireCtx(ctx, 1, "r1", S))
	must(m.AcquireBatch(ctx, 1, chainReqs(IS, S)))
	must(m.AcquireCtx(ctx, 1, "db/seg", IS, WithDurable())) // durability flip mid-sequence: stays put
	must(downgrade(m, 1, "db/seg/rel/t1", IS))              // downgrade mid-sequence: stays put
	must(m.AcquireCtx(ctx, 1, "r2", IS))
	must(m.AcquireCtx(ctx, 1, "r3", X))                // conversion: now the latest grant
	must(m.AcquireCtx(ctx, 1, "r1", S, WithDurable())) // regrant made durable: stays put
	must(downgrade(m, 1, "r2", IS))                    // same mode: no new grant
	must(m.AcquireCtx(ctx, 2, "r1", S))                // another transaction's grants
	must(m.AcquireBatch(ctx, 2, chainReqs(IS, S)))     // do not move txn 1's
	want := []Resource{"r1", "db", "db/seg", "db/seg/rel", "db/seg/rel/t1", "r2", "r3"}
	held := m.HeldLocks(1)
	if len(held) != len(want) {
		t.Fatalf("HeldLocks(1) = %v, want %v", held, want)
	}
	for i, h := range held {
		if h.Resource != want[i] {
			t.Errorf("HeldLocks(1)[%d] = %s, want %s (all: %v)", i, h.Resource, want[i], held)
		}
		if i > 0 && h.Seq <= held[i-1].Seq {
			t.Errorf("HeldLocks(1) sequence not increasing at %d: %v", i, held)
		}
	}
	if !held[0].Durable || !held[2].Durable {
		t.Errorf("r1 or db/seg not durable after the durable regrant: %v", held)
	}
	if held[4].Mode != IS {
		t.Errorf("db/seg/rel/t1 holds %v after the downgrade, want IS", held[4].Mode)
	}
	shards := map[int]bool{}
	for _, h := range held {
		shards[m.ShardOf(h.Resource)] = true
	}
	if len(shards) < 2 {
		t.Errorf("every lock in one stripe (%v): the test does not cross stripes", shards)
	}
}

func TestSnapshotQueuesHoldersInGrantOrder(t *testing.T) {
	ctx := context.Background()
	m := NewManager(Options{})
	// Twelve holders, kept sorted by id, granted in an order unrelated to
	// their ids; then txn 30 converts IS→IX, which is a grant.
	order := []TxnID{30, 7, 41, 3, 19, 52, 11, 26, 5, 48, 14, 2}
	for _, txn := range order {
		if err := m.AcquireCtx(ctx, txn, "hot", IS); err != nil {
			t.Fatal(err)
		}
		// Each also holds a private resource, so grants elsewhere interleave.
		if err := m.AcquireCtx(ctx, txn, Resource(fmt.Sprintf("own/%d", txn)), X); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AcquireCtx(ctx, 30, "hot", IX); err != nil {
		t.Fatal(err)
	}
	want := append(append([]TxnID{}, order[1:]...), 30)
	var granted []GrantInfo
	for _, q := range m.SnapshotQueues() {
		if q.Resource == "hot" {
			granted = q.Granted
		}
	}
	if len(granted) != len(want) {
		t.Fatalf("hot lists %d holders, want %d: %v", len(granted), len(want), granted)
	}
	for i, g := range granted {
		if g.Txn != want[i] {
			t.Errorf("hot holder %d = txn %d, want %d (all: %v)", i, g.Txn, want[i], granted)
		}
		if i > 0 && g.Seq <= granted[i-1].Seq {
			t.Errorf("hot grant sequence not increasing at %d: %v", i, granted)
		}
	}
	if last := granted[len(granted)-1]; last.Mode != IX {
		t.Errorf("converted holder lists %v, want IX", last.Mode)
	}
}
