package health

import (
	"testing"

	"colock/internal/lock"
)

func touchN(s *Sketch, r lock.Resource, m lock.Mode, n int) {
	for i := 0; i < n; i++ {
		s.Touch(r, m)
	}
}

func TestSketchExactWhileUnderCapacity(t *testing.T) {
	s := NewSketch(4)
	touchN(s, "a", lock.X, 5)
	touchN(s, "b", lock.S, 3)
	touchN(s, "a", lock.S, 1)

	top := s.TopK(0)
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
	s := NewSketch(2)
	touchN(s, "hot", lock.X, 10)
	touchN(s, "warm", lock.X, 3)
	s.Touch("new", lock.X) // at capacity: evicts warm (min=3)

	top := s.TopK(0)
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
}

func TestSketchNeverUndercounts(t *testing.T) {
	// Overflow a tiny sketch with a skewed stream; every surviving key's
	// estimate must be ≥ its true frequency, and the heaviest key must
	// still rank first.
	s := NewSketch(3)
	true_ := map[lock.Resource]uint64{}
	stream := []lock.Resource{"a", "b", "a", "c", "a", "d", "a", "e", "b", "a", "f", "a"}
	for _, r := range stream {
		s.Touch(r, lock.X)
		true_[r]++
	}
	top := s.TopK(0)
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
	s := NewSketch(4)
	touchN(s, "hot", lock.X, 8)
	touchN(s, "cool", lock.X, 1)
	s.Decay()
	top := s.TopK(0)
	if len(top) != 1 || top[0].Resource != "hot" || top[0].Count != 4 {
		t.Fatalf("after decay: %+v, want only hot count=4 (cool dropped)", top)
	}
	s.Decay()
	s.Decay()
	if got := s.TopK(0)[0].Count; got != 1 {
		t.Fatalf("hot after 3 decays = %d, want 1", got)
	}
	s.Decay()
	if s.Len() != 0 {
		t.Fatalf("sketch should be empty after final decay, has %d keys", s.Len())
	}
}

func TestSketchModeSeparatesKeys(t *testing.T) {
	s := NewSketch(4)
	touchN(s, "ep", lock.X, 2)
	touchN(s, "ep", lock.S, 5)
	top := s.TopK(0)
	if len(top) != 2 {
		t.Fatalf("tracked %d keys, want 2 (same resource, two modes)", len(top))
	}
	if top[0].Mode != "S" || top[0].Count != 5 || top[1].Mode != "X" || top[1].Count != 2 {
		t.Fatalf("unexpected ranking: %+v", top)
	}
}

func TestSketchTopKTruncatesAndReset(t *testing.T) {
	s := NewSketch(8)
	for _, r := range []lock.Resource{"a", "b", "c", "d"} {
		s.Touch(r, lock.X)
	}
	if got := len(s.TopK(2)); got != 2 {
		t.Fatalf("TopK(2) returned %d entries", got)
	}
	if got := len(s.TopK(0)); got != s.Len() {
		t.Fatalf("TopK(0) returned %d of %d entries", got, s.Len())
	}
}
