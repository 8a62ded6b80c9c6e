package lock

import (
	"context"
	"testing"
	"time"
)

func TestSnapshotContainsOnlyDurable(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "cells/c1", X, WithDurable())
	_ = m.AcquireCtx(context.Background(), 2, "cells/c2", S) // short lock: must not survive
	_ = m.AcquireCtx(context.Background(), 1, "cells/c3", S, WithDurable())

	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d locks, want 2: %v", len(snap), snap)
	}
	if snap[0].Resource != "cells/c1" || snap[0].Mode != X {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Resource != "cells/c3" || snap[1].Mode != S {
		t.Errorf("snap[1] = %+v", snap[1])
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 2, "b", S, WithDurable())
	_ = m.AcquireCtx(context.Background(), 1, "z", S, WithDurable())
	_ = m.AcquireCtx(context.Background(), 1, "a", S, WithDurable())
	snap := m.Snapshot()
	if len(snap) != 3 || snap[0].Txn != 1 || snap[0].Resource != "a" ||
		snap[1].Resource != "z" || snap[2].Txn != 2 {
		t.Errorf("snapshot order = %v", snap)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []DurableLock{{Txn: 1, Resource: "cells/c1", Mode: X}, {Txn: 2, Resource: "effectors/e1", Mode: S}}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("lock %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("not gob")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}

// TestCrashRestartKeepsLongLocks simulates the paper's workstation scenario:
// a long (check-out) lock survives a crash, a short lock does not, and after
// restart the long lock still blocks conflicting access.
func TestCrashRestartKeepsLongLocks(t *testing.T) {
	m1 := NewManager(Options{})
	_ = m1.AcquireCtx(context.Background(), 100, "cells/c1", X, WithDurable()) // checked out to a workstation
	_ = m1.AcquireCtx(context.Background(), 5, "cells/c2", X)                  // ordinary short transaction

	data, err := EncodeSnapshot(m1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": new manager, restore from the persisted snapshot.
	m2 := NewManager(Options{})
	locks, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(locks); err != nil {
		t.Fatal(err)
	}

	if heldMode(m2, 100, "cells/c1") != X {
		t.Error("long lock lost across restart")
	}
	if heldMode(m2, 5, "cells/c2") != None {
		t.Error("short lock survived restart")
	}
	// The restored lock still synchronizes.
	blocked := make(chan error, 1)
	go func() { blocked <- m2.AcquireCtx(context.Background(), 6, "cells/c1", S) }()
	select {
	case err := <-blocked:
		t.Fatalf("restored X lock did not block: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m2.ReleaseAll(100) // check-in
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

func TestRestoreMergesWithHeld(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", IX)
	if err := m.Restore([]DurableLock{{Txn: 1, Resource: "a", Mode: S}}); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(m, 1, "a"); got != SIX {
		t.Errorf("merged mode = %v, want SIX", got)
	}
}

func TestRestoreConflictFails(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", X)
	err := m.Restore([]DurableLock{{Txn: 2, Resource: "a", Mode: X}})
	if err == nil {
		t.Error("conflicting restore succeeded")
	}
}

func TestDurableUpgradeOfShortLock(t *testing.T) {
	m := NewManager(Options{})
	_ = m.AcquireCtx(context.Background(), 1, "a", S)
	_ = m.AcquireCtx(context.Background(), 1, "a", S, WithDurable()) // same mode, now durable
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Mode != S {
		t.Errorf("snapshot = %v, want one durable S", snap)
	}
}
