package health

import (
	"testing"
	"time"

	"colock/internal/lock"
)

// The monitor's top-K is its contention table (trace.Profile): these tests
// feed it wait events through Record and decay it by closing windows.

func newTopKMonitor(capacity int) *Monitor {
	return NewMonitor(Options{Window: time.Second, TopK: capacity, Start: base})
}

func touchN(m *Monitor, r lock.Resource, mode lock.Mode, n int) {
	for i := 0; i < n; i++ {
		m.Record(lock.Event{Kind: "wait", At: at(0), Resource: r, Mode: mode})
	}
}

func TestSketchExactWhileUnderCapacity(t *testing.T) {
	m := newTopKMonitor(4)
	touchN(m, "a", lock.X, 5)
	touchN(m, "b", lock.S, 3)
	touchN(m, "a", lock.S, 1)

	top := m.Profile().TopK(0)
	if len(top) != 3 {
		t.Fatalf("tracked %d keys, want 3", len(top))
	}
	if top[0].Resource != "a" || top[0].Mode != "X" || top[0].Count != 5 || top[0].MaxErr != 0 {
		t.Fatalf("top[0] = %+v, want a/X count=5 err=0", top[0])
	}
	if top[1].Resource != "b" || top[1].Count != 3 {
		t.Fatalf("top[1] = %+v, want b/S count=3", top[1])
	}
}

func TestSketchEvictionInheritsMinWithErrorBound(t *testing.T) {
	m := newTopKMonitor(2)
	touchN(m, "hot", lock.X, 10)
	touchN(m, "warm", lock.X, 3)
	touchN(m, "new", lock.X, 1) // at capacity: evicts warm (min=3)

	top := m.Profile().TopK(0)
	if len(top) != 2 {
		t.Fatalf("tracked %d keys, want 2", len(top))
	}
	if top[0].Resource != "hot" || top[0].Count != 10 {
		t.Fatalf("top[0] = %+v, want hot count=10", top[0])
	}
	// The newcomer inherited min+1 = 4 with error bound 3: its true count
	// (1) satisfies Count-MaxErr ≤ true ≤ Count.
	if top[1].Resource != "new" || top[1].Count != 4 || top[1].MaxErr != 3 {
		t.Fatalf("top[1] = %+v, want new count=4 err=3", top[1])
	}
	if lo := top[1].Count - top[1].MaxErr; lo > 1 {
		t.Fatalf("lower bound %d exceeds true count 1", lo)
	}
	// Blocks counts only what the key did since it took the slot.
	if top[1].Blocks != 1 {
		t.Fatalf("top[1].Blocks = %d, want 1", top[1].Blocks)
	}
}

func TestSketchNeverUndercounts(t *testing.T) {
	// Overflow a tiny table with a skewed stream; every surviving key's
	// estimate must be ≥ its true frequency, and the heaviest key must
	// still rank first.
	m := newTopKMonitor(3)
	true_ := map[lock.Resource]uint64{}
	stream := []lock.Resource{"a", "b", "a", "c", "a", "d", "a", "e", "b", "a", "f", "a"}
	for _, r := range stream {
		touchN(m, r, lock.X, 1)
		true_[r]++
	}
	top := m.Profile().TopK(0)
	if top[0].Resource != "a" {
		t.Fatalf("heaviest key = %q, want a (top: %+v)", top[0].Resource, top)
	}
	for _, e := range top {
		if e.Count < true_[e.Resource] {
			t.Fatalf("%q undercounted: estimate %d < true %d", e.Resource, e.Count, true_[e.Resource])
		}
	}
}

func TestSketchDecayHalvesAndDrops(t *testing.T) {
	m := newTopKMonitor(4)
	touchN(m, "hot", lock.X, 8)
	touchN(m, "cool", lock.X, 1)
	m.Advance(at(1)) // one closed window, one decay
	top := m.Profile().TopK(0)
	if len(top) != 1 || top[0].Resource != "hot" || top[0].Count != 4 {
		t.Fatalf("after decay: %+v, want only hot count=4 (cool dropped)", top)
	}
	m.Advance(at(2))
	m.Advance(at(3))
	if got := m.Profile().TopK(0)[0].Count; got != 1 {
		t.Fatalf("hot after 3 decays = %d, want 1", got)
	}
	m.Advance(at(4))
	if top := m.Profile().TopK(0); len(top) != 0 {
		t.Fatalf("top-K should be empty after final decay, has %+v", top)
	}
}

func TestSketchModeSeparatesKeys(t *testing.T) {
	m := newTopKMonitor(4)
	touchN(m, "ep", lock.X, 2)
	touchN(m, "ep", lock.S, 5)
	top := m.Profile().TopK(0)
	if len(top) != 2 {
		t.Fatalf("tracked %d keys, want 2 (same resource, two modes)", len(top))
	}
	if top[0].Mode != "S" || top[0].Count != 5 || top[1].Mode != "X" || top[1].Count != 2 {
		t.Fatalf("unexpected ranking: %+v", top)
	}
}

func TestSketchTopKTruncatesAndReset(t *testing.T) {
	m := newTopKMonitor(8)
	for _, r := range []lock.Resource{"a", "b", "c", "d"} {
		touchN(m, r, lock.X, 1)
	}
	if got := len(m.Profile().TopK(2)); got != 2 {
		t.Fatalf("TopK(2) returned %d entries", got)
	}
	if got := len(m.Profile().TopK(0)); got != len(m.Profile().Entries()) {
		t.Fatalf("TopK(0) returned %d of %d entries", got, len(m.Profile().Entries()))
	}
}
