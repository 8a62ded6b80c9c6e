package trace

import (
	"context"
	"strings"
	"testing"
	"time"

	"colock/internal/lock"
)

// The folded-stack output format is an interchange contract with flamegraph
// tooling (flamegraph.pl, inferno, speedscope): semicolon-separated frames,
// one space, integer value. This test pins it exactly.
func TestFoldedStackFormatPinned(t *testing.T) {
	p := NewProfile()
	p.Record(lock.Event{Kind: "wait", Txn: 2, Resource: "db1/seg1/cells/c1", Mode: lock.X, Blockers: []lock.TxnID{1}})
	p.Record(lock.Event{Kind: "grant", Txn: 2, Resource: "db1/seg1/cells/c1", Mode: lock.X, Waited: true, Dur: 1500 * time.Nanosecond})

	got := p.FoldedStacks()
	want := "txn:2;X:db1/seg1/cells/c1;blocked-on:txn:1 1500\n"
	if got != want {
		t.Fatalf("folded stacks =\n%q\nwant\n%q", got, want)
	}
	for _, line := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("line %q has no value separator", line)
		}
		stack := line[:i]
		if strings.ContainsAny(stack, " \t") {
			t.Errorf("frames contain whitespace: %q", stack)
		}
		if len(strings.Split(stack, ";")) != 3 {
			t.Errorf("line %q: want 3 frames", line)
		}
	}
}

func TestProfileAttributesToEveryBlocker(t *testing.T) {
	p := NewProfile()
	p.Record(lock.Event{Kind: "wait", Txn: 3, Resource: "a", Mode: lock.X, Blockers: []lock.TxnID{1, 2}})
	p.Record(lock.Event{Kind: "grant", Txn: 3, Resource: "a", Mode: lock.X, Waited: true, Dur: 100})

	entries := p.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %+v, want 2 (one per blocker)", entries)
	}
	for _, e := range entries {
		if e.Waiter != 3 || e.BlockedNS != 100 || e.Count != 1 {
			t.Errorf("entry = %+v", e)
		}
	}
	if p.TotalBlocked() != 200 {
		t.Errorf("TotalBlocked = %d, want 200", p.TotalBlocked())
	}
}

func TestProfileTimeoutAndUnknownHolder(t *testing.T) {
	p := NewProfile()
	// Timeout after a wait folds under the wait's blockers.
	p.Record(lock.Event{Kind: "wait", Txn: 5, Resource: "a", Mode: lock.S, Blockers: []lock.TxnID{4}})
	p.Record(lock.Event{Kind: "timeout", Txn: 5, Resource: "a", Mode: lock.S, Dur: 300})
	// A wait-die victim with no prior wait event carries its own blockers.
	p.Record(lock.Event{Kind: "victim", Txn: 9, Resource: "b", Mode: lock.X, Dur: 50, Blockers: []lock.TxnID{8}})
	// A terminal event with no known blockers folds under "unknown".
	p.Record(lock.Event{Kind: "wait", Txn: 6, Resource: "c", Mode: lock.X})
	p.Record(lock.Event{Kind: "cancel", Txn: 6, Resource: "c", Mode: lock.X, Dur: 70})

	got := p.FoldedStacks()
	for _, want := range []string{
		"txn:5;S:a;blocked-on:txn:4 300\n",
		"txn:9;X:b;blocked-on:txn:8 50\n",
		"txn:6;X:c;blocked-on:unknown 70\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("folded stacks missing %q:\n%s", want, got)
		}
	}
}

func TestProfileIgnoresFastPathGrants(t *testing.T) {
	p := NewProfile()
	// Fast-path grant: no wait, Waited false.
	p.Record(lock.Event{Kind: "grant", Txn: 1, Resource: "a", Mode: lock.S, Dur: 10})
	if got := p.FoldedStacks(); got != "" {
		t.Errorf("fast-path grant folded: %q", got)
	}
	// release-all clears any dangling pending wait.
	p.Record(lock.Event{Kind: "wait", Txn: 2, Resource: "a", Mode: lock.X, Blockers: []lock.TxnID{1}})
	p.Record(lock.Event{Kind: "release-all", Txn: 2})
	p.Record(lock.Event{Kind: "grant", Txn: 2, Resource: "a", Mode: lock.X, Waited: true, Dur: 500})
	if got := p.FoldedStacks(); got != "" {
		t.Errorf("grant after release-all folded stale wait: %q", got)
	}
}

func TestProfileEndToEndWithManager(t *testing.T) {
	p := NewProfile()
	m := lock.NewManager(lock.Options{Policy: lock.PolicyNone, Sinks: []lock.EventSink{p}})
	if err := m.AcquireCtx(context.Background(), 1, "a", lock.X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(context.Background(), 2, "a", lock.X) }()
	for i := 0; m.WaitingTxns() == 0; i++ {
		if i > 2000 {
			t.Fatal("txn 2 never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond)
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)

	got := p.FoldedStacks()
	if !strings.HasPrefix(got, "txn:2;X:a;blocked-on:txn:1 ") {
		t.Fatalf("folded stacks = %q, want txn 2 blocked on txn 1 over a", got)
	}
	entries := p.Entries()
	if len(entries) != 1 || entries[0].BlockedNS < int64(2*time.Millisecond) {
		t.Errorf("entries = %+v, want one with ≥2ms blocked", entries)
	}
}
