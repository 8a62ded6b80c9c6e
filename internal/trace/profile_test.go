package trace

import (
	"context"
	"errors"
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
	want := "db1;seg1;cells;c1;X 1500\n"
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
		if len(strings.Split(stack, ";")) != 5 {
			t.Errorf("line %q: want 5 frames", line)
		}
	}
}

func TestProfileTimeoutAndUnknownHolder(t *testing.T) {
	p := NewProfile()
	// A timeout after a wait adds its Dur to the key's slot.
	p.Record(lock.Event{Kind: "wait", Txn: 5, Resource: "a", Mode: lock.S, Blockers: []lock.TxnID{4}})
	p.Record(lock.Event{Kind: "timeout", Txn: 5, Resource: "a", Mode: lock.S, Dur: 300})
	// A wait-die victim with no prior wait event is its own contention.
	p.Record(lock.Event{Kind: "victim", Txn: 9, Resource: "b", Mode: lock.X, Dur: 50, Blockers: []lock.TxnID{8}})
	// Blockers play no part: a wait without them folds the same way.
	p.Record(lock.Event{Kind: "wait", Txn: 6, Resource: "c", Mode: lock.X})
	p.Record(lock.Event{Kind: "cancel", Txn: 6, Resource: "c", Mode: lock.X, Dur: 70})
	// A cancel of a key without a slot adds nothing.
	p.Record(lock.Event{Kind: "cancel", Txn: 7, Resource: "d", Mode: lock.X, Dur: 90})

	got := p.FoldedStacks()
	if strings.Count(got, "\n") != 3 {
		t.Errorf("folded stacks = %q, want 3 lines", got)
	}
	for _, want := range []string{
		"a;S 300\n",
		"b;X 50\n",
		"c;X 70\n",
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
	if e := p.Entries(); len(e) != 0 {
		t.Errorf("fast-path grant took a slot: %+v", e)
	}
}

func TestProfileEndToEndWithManager(t *testing.T) {
	p := NewProfile()
	m := lock.NewManager(lock.Options{Policy: lock.PolicyNone, Sinks: []lock.EventSink{p}})
	if err := m.AcquireCtx(context.Background(), 1, "db/a", lock.X); err != nil {
		t.Fatal(err)
	}
	// Txn 2 queues behind txn 1 and times out: the timeout's Dur runs from
	// the enqueue to past the 2ms deadline.
	if err := m.AcquireCtx(context.Background(), 2, "db/a", lock.X, lock.WithTimeout(2*time.Millisecond)); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("txn 2: %v, want a timeout", err)
	}
	m.ReleaseAll(1)

	got := p.FoldedStacks()
	if !strings.HasPrefix(got, "db;a;X ") {
		t.Fatalf("folded stacks = %q, want db;a;X", got)
	}
	entries := p.Entries()
	if len(entries) != 1 || entries[0].Blocks != 2 || entries[0].BlockedNS < int64(2*time.Millisecond) {
		t.Errorf("entries = %+v, want one with 2 blocks (wait, timeout) and ≥2ms blocked", entries)
	}
}
