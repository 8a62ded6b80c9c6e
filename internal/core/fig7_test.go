package core

import (
	"testing"
	"time"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/store"
)

// Fig7Locks returns the exact lock sets Figure 7 shows for queries Q2 and Q3
// (resource → mode). The transaction executing Q2 X-locks robot r1 FOR
// UPDATE; Q3 X-locks robot r2. Neither has the right to update relation
// "effectors", so rule 4′ S-locks the referenced effectors.
func fig7Want(q int) map[string]lock.Mode {
	common := map[string]lock.Mode{
		"db1":                      lock.IX,
		"db1/seg1":                 lock.IX,
		"db1/seg1/cells":           lock.IX,
		"db1/seg1/cells/c1":        lock.IX,
		"db1/seg1/cells/c1/robots": lock.IX,
		"db1/seg2":                 lock.IS,
		"db1/seg2/effectors":       lock.IS,
	}
	if q == 2 {
		common["db1/seg1/cells/c1/robots/r1"] = lock.X
		common["db1/seg2/effectors/e1"] = lock.S
		common["db1/seg2/effectors/e2"] = lock.S
	} else {
		common["db1/seg1/cells/c1/robots/r2"] = lock.X
		common["db1/seg2/effectors/e2"] = lock.S
		common["db1/seg2/effectors/e3"] = lock.S
	}
	return common
}

func fig7Protocol(t *testing.T) *Protocol {
	t.Helper()
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	auth := authz.NewTable(false)
	auth.Grant(2, "cells") // Q2's transaction may update cells …
	auth.Grant(3, "cells") // … and so may Q3's —
	// neither may update the effectors library (the Figure 7 assumption).
	return NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{
		Rule4Prime: true, Authorizer: auth,
	})
}

// TestFigure7LockSetQ2 reproduces the left column of Figure 7 lock for lock.
func TestFigure7LockSetQ2(t *testing.T) {
	p := fig7Protocol(t)
	if err := p.LockPath(2, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	want := fig7Want(2)
	got := heldMap(t, p, 2)
	if len(got) != len(want) {
		t.Fatalf("Q2 holds %d locks, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for r, m := range want {
		if got[r] != m {
			t.Errorf("Q2 holds %v on %s, want %v", got[r], r, m)
		}
	}
}

// TestFigure7LockSetQ3 reproduces the right column of Figure 7.
func TestFigure7LockSetQ3(t *testing.T) {
	p := fig7Protocol(t)
	if err := p.LockPath(3, store.P("cells", "c1", "robots", "r2"), lock.X); err != nil {
		t.Fatal(err)
	}
	want := fig7Want(3)
	got := heldMap(t, p, 3)
	if len(got) != len(want) {
		t.Fatalf("Q3 holds %d locks, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for r, m := range want {
		if got[r] != m {
			t.Errorf("Q3 holds %v on %s, want %v", got[r], r, m)
		}
	}
}

// TestFigure7AcquisitionOrder pins the §4.4.2.2 narrative: ancestors are
// IX-locked in sequence, then the concurrency-control manager locks the
// referenced effectors (IS spine + S entry points), and only then is the X
// lock on robot r1 granted.
func TestFigure7AcquisitionOrder(t *testing.T) {
	p := fig7Protocol(t)
	if err := p.LockPath(2, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, h := range p.Manager().HeldLocks(2) {
		order = append(order, string(h.Resource)+":"+h.Mode.String())
	}
	want := []string{
		"db1:IX",
		"db1/seg1:IX",
		"db1/seg1/cells:IX",
		"db1/seg1/cells/c1:IX",
		"db1/seg1/cells/c1/robots:IX",
		"db1/seg2:IS",
		"db1/seg2/effectors:IS",
		"db1/seg2/effectors/e1:S",
		"db1/seg2/effectors/e2:S",
		"db1/seg1/cells/c1/robots/r1:X",
	}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("acquisition %d = %s, want %s", i, order[i], want[i])
		}
	}
}

// TestFigure7Q2Q3Concurrent: "Rule 4' allows Q2 and Q3 to run concurrently,
// although both queries touch effector e2" — both X requests must be
// granted simultaneously without a wait.
func TestFigure7Q2Q3Concurrent(t *testing.T) {
	p := fig7Protocol(t)
	if err := p.LockPath(2, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.LockPath(3, store.P("cells", "c1", "robots", "r2"), lock.X) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Q3 blocked although rule 4' makes it compatible with Q2")
	}
	if p.Manager().Stats().Waits != 0 {
		t.Errorf("waits = %d, want 0", p.Manager().Stats().Waits)
	}
	// Both hold S on the shared effector e2.
	h := holders(p.Manager(), "db1/seg2/effectors/e2")
	if h[2] != lock.S || h[3] != lock.S {
		t.Errorf("e2 holders = %v", h)
	}
}

// TestFigure7WithoutRule4PrimeSerializes: the same two queries under the
// plain rule 4 (X propagated onto e2) must serialize — the paper's
// authorization-oriented problem.
func TestFigure7WithoutRule4PrimeSerializes(t *testing.T) {
	st := store.PaperDatabase()
	nm := NewNamer(st.Catalog(), false)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{Rule4Prime: false})

	if err := p.LockPath(2, store.P("cells", "c1", "robots", "r1"), lock.X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.LockPath(3, store.P("cells", "c1", "robots", "r2"), lock.X) }()
	select {
	case err := <-done:
		t.Fatalf("Q3 not blocked under rule 4: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	p.Release(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.Manager().Stats().Waits == 0 {
		t.Error("expected a wait under rule 4")
	}
}
