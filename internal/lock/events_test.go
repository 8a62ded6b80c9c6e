package lock

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingSink is a trivial EventSink for tests.
type recordingSink struct {
	mu     sync.Mutex
	events []Event
}

func (rs *recordingSink) Record(e Event) {
	rs.mu.Lock()
	rs.events = append(rs.events, e)
	rs.mu.Unlock()
}

func (rs *recordingSink) kinds() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, len(rs.events))
	for i, e := range rs.events {
		out[i] = e.Kind
	}
	return out
}

// Every sink — a Record-only func sink included — sees the same event stream,
// in the same order, without double-buffering (one tracer buffer fans out to
// all).
func TestSinkComposition(t *testing.T) {
	var hook recordingSink
	s1, s2 := &recordingSink{}, &recordingSink{}
	m := NewManager(Options{Sinks: []EventSink{sinkFunc(hook.Record), s1, s2}})
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)

	want := []string{"grant", "convert", "release", "release-all"}
	for name, got := range map[string][]string{
		"hook": hook.kinds(), "sink1": s1.kinds(), "sink2": s2.kinds(),
	} {
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s saw %v, want %v", name, got, want)
		}
	}
}

func TestAttachSink(t *testing.T) {
	m := NewManager(Options{})
	// With no consumer at all, operations are untraced.
	if err := m.AcquireCtx(context.Background(), 1, "a", S); err != nil {
		t.Fatal(err)
	}
	late := &recordingSink{}
	m.AttachSink(late)
	if err := m.AcquireCtx(context.Background(), 1, "b", S); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	got := late.kinds()
	// The late sink sees the post-attach grant, both releases, and the
	// release-all summary.
	if len(got) != 4 || got[0] != "grant" || got[3] != "release-all" {
		t.Errorf("late sink saw %v, want [grant release release release-all]", got)
	}
}

// A sink may call back into the manager: delivery happens with no latch
// held.
func TestSinkMayReenter(t *testing.T) {
	var m *Manager
	var counts []int
	var mu sync.Mutex
	sink := sinkFunc(func(e Event) {
		mu.Lock()
		counts = append(counts, m.LockCount())
		mu.Unlock()
	})
	m = NewManager(Options{Sinks: []EventSink{sink}})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 0 || counts[2] != 0 {
		t.Errorf("LockCount seen by sink = %v, want [1 0 0]", counts)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Record(e Event) { f(e) }

// Event metadata: grants carry the serving shard and a fast-path latency;
// releases carry the released mode and the hold time.
func TestEventTimestampsAndDurations(t *testing.T) {
	sink := &recordingSink{}
	m := NewManager(Options{Sinks: []EventSink{sink}})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	m.ReleaseAll(1)

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != 3 {
		t.Fatalf("events = %v", sink.events)
	}
	g, r := sink.events[0], sink.events[1]
	if ra := sink.events[2]; ra.Kind != "release-all" ||
		len(ra.Resources) != 1 || ra.Resources[0] != "a" {
		t.Errorf("release-all event = %+v, want Resources [a]", ra)
	}
	if g.Kind != "grant" || g.At.IsZero() || g.Dur < 0 || g.Waited {
		t.Errorf("grant event = %+v", g)
	}
	if g.Shard != m.ShardOf("a") {
		t.Errorf("grant shard = %d, want %d", g.Shard, m.ShardOf("a"))
	}
	if r.Kind != "release" || r.Mode != X {
		t.Errorf("release event = %+v, want mode X", r)
	}
	if r.Dur < 2*time.Millisecond {
		t.Errorf("release hold time = %v, want ≥ 2ms", r.Dur)
	}
	if !r.At.After(g.At) {
		t.Errorf("release At %v not after grant At %v", r.At, g.At)
	}
}

// One delivery, one clock reading: the grants of an AcquireBatch share At,
// and each Dur counts from the operation's start — where the hold clock
// starts too, so a later release's Dur counts from there.
func TestBatchEventsShareOneStamp(t *testing.T) {
	sink := &recordingSink{}
	m := NewManager(Options{Sinks: []EventSink{sink}})
	before := time.Now()
	reqs := []BatchReq{{"db", IX}, {"db/s", IX}, {"db/s/r", IX}, {"db/s/r/k", X}}
	if err := m.AcquireBatch(context.Background(), 1, reqs); err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	time.Sleep(time.Millisecond)
	release(m, 1, "db/s/r/k")

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != len(reqs)+1 {
		t.Fatalf("events = %+v, want %d grants and a release", sink.events, len(reqs))
	}
	g := sink.events[0]
	start := g.At.Add(-g.Dur)
	if start.Before(before) || start.After(after) || g.Dur < 0 {
		t.Errorf("grant At %v − Dur %v = %v, want the operation's start, within [%v, %v]", g.At, g.Dur, start, before, after)
	}
	for _, e := range sink.events[:len(reqs)] {
		if e.Kind != "grant" || !e.At.Equal(g.At) || e.Dur != g.Dur {
			t.Errorf("batch grant %+v: want At %v and Dur %v, shared with the first", e, g.At, g.Dur)
		}
	}
	r := sink.events[len(reqs)]
	if r.Kind != "release" || r.Dur != r.At.Sub(start) || r.Dur < time.Millisecond {
		t.Errorf("release %+v: want Dur = At − %v, ≥ 1ms", r, start)
	}
}

// Under -race: per-operation event ordering must hold through a shared sink
// even with many concurrent operations — for any (txn, resource) the stream
// is grant, then release, repeated, never reordered or dropped.
func TestConcurrentEventOrdering(t *testing.T) {
	sink := &recordingSink{}
	m := NewManager(Options{Sinks: []EventSink{sink}})
	const workers, iters = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := TxnID(w + 1)
			for i := 0; i < iters; i++ {
				r := Resource(fmt.Sprintf("r%d", w%4)) // some sharing
				if err := m.AcquireCtx(context.Background(), txn, r, S); err != nil {
					t.Error(err)
					return
				}
				release(m, txn, r)
			}
		}(w)
	}
	wg.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	type key struct {
		txn TxnID
		res Resource
	}
	holding := make(map[key]bool)
	var grants, releases int
	for _, e := range sink.events {
		k := key{e.Txn, e.Resource}
		switch e.Kind {
		case "grant":
			if holding[k] {
				t.Fatalf("double grant without release for %+v", k)
			}
			holding[k] = true
			grants++
		case "release":
			if !holding[k] {
				t.Fatalf("release without grant for %+v", k)
			}
			holding[k] = false
			releases++
		}
	}
	if grants != workers*iters || releases != workers*iters {
		t.Fatalf("grants=%d releases=%d, want %d each", grants, releases, workers*iters)
	}
}

func TestSnapshotQueues(t *testing.T) {
	m := NewManager(Options{})
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

	qs := m.SnapshotQueues()
	if len(qs) != 1 {
		t.Fatalf("queues = %+v, want one entry", qs)
	}
	q := qs[0]
	if q.Resource != "a" || !q.Contended() {
		t.Fatalf("queue = %+v", q)
	}
	if len(q.Granted) != 2 || q.Granted[0].Txn != 1 || q.Granted[1].Txn != 2 {
		t.Errorf("granted = %+v, want txns 1,2 in grant order", q.Granted)
	}
	for _, g := range q.Granted {
		if g.Mode != S {
			t.Errorf("granted mode = %v, want S", g.Mode)
		}
	}
	if len(q.Waiting) != 1 || q.Waiting[0].Txn != 3 || q.Waiting[0].Mode != X {
		t.Errorf("waiting = %+v, want txn 3 in X", q.Waiting)
	}

	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
	if qs := m.SnapshotQueues(); len(qs) != 0 {
		t.Errorf("queues after drain = %+v, want empty", qs)
	}
}

// PolicyNone performs neither detection nor prevention: a genuine deadlock
// persists, visible to the waits-for introspection, until a participant is
// withdrawn by timeout or released by hand.
func TestPolicyNoneLeavesDeadlockStanding(t *testing.T) {
	m := NewManager(Options{Policy: PolicyNone})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "b", X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.AcquireCtx(context.Background(), 1, "b", X) }()
	go func() { errs <- m.AcquireCtx(context.Background(), 2, "a", X) }()
	for i := 0; m.WaitingTxns() < 2; i++ {
		if i > 2000 {
			t.Fatal("deadlock never formed")
		}
		time.Sleep(time.Millisecond)
	}

	// Still deadlocked after a grace period: nobody was aborted.
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-errs:
		t.Fatalf("a waiter returned (%v); PolicyNone must not resolve deadlocks", err)
	default:
	}
	if st := m.Stats(); st.Deadlocks != 0 {
		t.Errorf("Deadlocks = %d, want 0 under PolicyNone", st.Deadlocks)
	}

	edges := m.WaitsForEdges()
	if len(edges) != 2 {
		t.Fatalf("waits-for edges = %+v, want 2", edges)
	}
	if edges[0].From != 1 || edges[0].To != 2 || edges[1].From != 2 || edges[1].To != 1 {
		t.Errorf("edges = %+v, want 1→2 and 2→1", edges)
	}
	dot := m.WaitsForDOT()
	if !strings.Contains(dot, "(victim)") || !strings.Contains(dot, "(victim edge)") {
		t.Errorf("DOT missing victim annotations:\n%s", dot)
	}

	// Hand-resolve: abort the younger transaction.
	m.ReleaseAll(2)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// With timeouts, PolicyNone behaves like the timeout-based systems of the
// paper's era: the deadlock breaks when a waiter's deadline expires.
func TestPolicyNoneTimeoutBreaksDeadlock(t *testing.T) {
	m := NewManager(Options{Policy: PolicyNone})
	if err := m.AcquireCtx(context.Background(), 1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 2, "b", X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.AcquireCtx(context.Background(), 1, "b", X) }()
	go func() { errs <- m.AcquireCtx(context.Background(), 2, "a", X, WithTimeout(20*time.Millisecond)) }()

	var sawTimeout bool
	err := <-errs // txn 2 times out, which lets... nothing move yet
	if err != nil {
		sawTimeout = true
		m.ReleaseAll(2) // abort the timed-out transaction
	} else {
		t.Fatalf("txn 1 returned first with nil; expected txn 2's timeout")
	}
	if err := <-errs; err != nil {
		t.Fatalf("txn 1 after timeout resolution: %v", err)
	}
	if !sawTimeout {
		t.Fatal("no timeout observed")
	}
	m.ReleaseAll(1)
}

// slowSink takes its time over every event before it counts it, so a request
// that returned ahead of its terminal event would be caught not having it.
type slowSink struct {
	mu   sync.Mutex
	seen map[TxnID][]string
}

func (s *slowSink) Record(e Event) {
	time.Sleep(2 * time.Millisecond)
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[TxnID][]string)
	}
	s.seen[e.Txn] = append(s.seen[e.Txn], e.Kind)
	s.mu.Unlock()
}

func (s *slowSink) saw(txn TxnID, kind string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.seen[txn] {
		if k == kind {
			return true
		}
	}
	return false
}

// The delivery contract (DESIGN.md §9): a request's terminal event — the
// grant after a wait, victim, wait-die, timeout, cancel, shed — has reached
// every sink before the request returns, whichever goroutine resolved it —
// a victim whether it waited first or closed the cycle itself.
func TestTerminalEventBeforeReturn(t *testing.T) {
	ctx := context.Background()
	waitQueued := func(t *testing.T, m *Manager, n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); m.WaitingTxns() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d requests queued after 5s", m.WaitingTxns(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	cases := []struct {
		name string
		opts Options
		// run drives txn 2 into the terminal path and returns its error.
		run      func(t *testing.T, m *Manager) error
		wantErr  error
		wantKind string
	}{
		{name: "grant-after-wait", wantKind: "grant", run: func(t *testing.T, m *Manager) error {
			go func() {
				waitQueued(t, m, 1)
				m.ReleaseAll(1)
			}()
			return m.AcquireCtx(ctx, 2, "a", X)
		}},
		{name: "victim-deferred", wantErr: ErrDeadlock, wantKind: "victim", run: func(t *testing.T, m *Manager) error {
			if err := m.AcquireCtx(ctx, 2, "b", X); err != nil {
				t.Fatal(err)
			}
			go func() {
				waitQueued(t, m, 1)
				_ = m.AcquireCtx(ctx, 1, "b", X) // the older txn closes the cycle; granted once 2 died and released
			}()
			return m.AcquireCtx(ctx, 2, "a", X)
		}},
		{name: "victim-closing", wantErr: ErrDeadlock, wantKind: "victim", run: func(t *testing.T, m *Manager) error {
			if err := m.AcquireCtx(ctx, 2, "b", X); err != nil {
				t.Fatal(err)
			}
			go func() { _ = m.AcquireCtx(ctx, 1, "b", X) }()
			waitQueued(t, m, 1)
			return m.AcquireCtx(ctx, 2, "a", X) // closes the cycle itself and is the youngest
		}},
		{name: "wait-die", opts: Options{Policy: PolicyWaitDie}, wantErr: ErrWaitDie, wantKind: "victim", run: func(t *testing.T, m *Manager) error {
			return m.AcquireCtx(ctx, 2, "a", X)
		}},
		{name: "timeout", wantErr: ErrTimeout, wantKind: "timeout", run: func(t *testing.T, m *Manager) error {
			return m.AcquireCtx(ctx, 2, "a", X, WithTimeout(5*time.Millisecond))
		}},
		{name: "cancel", wantErr: context.Canceled, wantKind: "cancel", run: func(t *testing.T, m *Manager) error {
			cctx, cancel := context.WithCancel(ctx)
			go func() {
				waitQueued(t, m, 1)
				cancel()
			}()
			return m.AcquireCtx(cctx, 2, "a", X)
		}},
		{name: "shed", wantErr: ErrShed, wantKind: "shed", run: func(t *testing.T, m *Manager) error {
			m.ConfigureAdmission(AdmissionConfig{MaxWaiters: 1, Mode: AdmitDegrade})
			go func() { _ = m.AcquireCtx(ctx, 3, "a", X, WithTimeout(time.Second)) }()
			waitQueued(t, m, 1)
			defer m.ReleaseAll(3)
			return m.AcquireCtx(ctx, 2, "a", X)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &slowSink{}
			tc.opts.Sinks = []EventSink{sink}
			m := NewManager(tc.opts)
			defer m.Close()
			if err := m.AcquireCtx(ctx, 1, "a", X); err != nil {
				t.Fatal(err)
			}
			err := tc.run(t, m)
			// Read at once: the only events txn 2 has so far are its wait and
			// its terminal event (a wait delivered by the requester may land
			// after a terminal event delivered by the goroutine that decided it).
			got := sink.saw(2, tc.wantKind)
			if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("txn 2 returned %v, want %v", err, tc.wantErr)
			}
			if !got {
				t.Errorf("txn 2 returned before its terminal %q event reached the sink", tc.wantKind)
			}
			m.ReleaseAll(1)
			m.ReleaseAll(2)
		})
	}
}
