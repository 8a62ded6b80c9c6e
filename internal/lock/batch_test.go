package lock

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chainReqs builds the ancestor-chain shape AcquireBatch exists for.
func chainReqs(mode Mode, leafMode Mode) []BatchReq {
	return []BatchReq{
		{"db", mode},
		{"db/seg", mode},
		{"db/seg/rel", mode},
		{"db/seg/rel/t1", leafMode},
	}
}

func TestAcquireBatchGrantsChainInOrder(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireBatch(context.Background(), 1, chainReqs(IS, S)); err != nil {
		t.Fatal(err)
	}
	held := m.HeldLocks(1)
	if len(held) != 4 {
		t.Fatalf("held %d locks, want 4: %v", len(held), held)
	}
	want := chainReqs(IS, S)
	for i, h := range held {
		if h.Resource != want[i].Resource || h.Mode != want[i].Mode {
			t.Errorf("held[%d] = %v %v, want %v %v", i, h.Resource, h.Mode, want[i].Resource, want[i].Mode)
		}
		if i > 0 && held[i].Seq <= held[i-1].Seq {
			t.Errorf("grant seq out of chain order: %v", held)
		}
	}
	st := m.Stats()
	if st.Batches != 1 || st.BatchFastGrants != 4 || st.BatchFallbacks != 0 {
		t.Errorf("batch counters = %d/%d/%d, want 1/4/0", st.Batches, st.BatchFastGrants, st.BatchFallbacks)
	}
	if st.Requests != 4 || st.Grants != 4 {
		t.Errorf("requests/grants = %d/%d, want 4/4", st.Requests, st.Grants)
	}
}

func TestAcquireBatchRegrantsAndConverts(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireBatch(context.Background(), 1, chainReqs(IS, S)); err != nil {
		t.Fatal(err)
	}
	// Re-running with IX intentions converts the IS ancestors (Sup) and
	// regrants the covered leaf.
	if err := m.AcquireBatch(context.Background(), 1, chainReqs(IX, S)); err != nil {
		t.Fatal(err)
	}
	if got := heldMode(m, 1, "db"); got != IX {
		t.Errorf("db held %v, want IX", got)
	}
	if got := heldMode(m, 1, "db/seg/rel/t1"); got != S {
		t.Errorf("leaf held %v, want S", got)
	}
	st := m.Stats()
	if st.Conversions != 3 {
		t.Errorf("Conversions = %d, want 3", st.Conversions)
	}
	if st.Regrants != 1 {
		t.Errorf("Regrants = %d, want 1", st.Regrants)
	}
	if st.BatchFastGrants != 8 {
		t.Errorf("BatchFastGrants = %d, want 8", st.BatchFastGrants)
	}
}

func TestAcquireBatchDurable(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireBatch(context.Background(), 1, chainReqs(IS, S)); err != nil {
		t.Fatal(err)
	}
	// A durable batch over the same chain must upgrade every held lock to
	// durable, including the regranted ones.
	if err := m.AcquireBatch(context.Background(), 1, chainReqs(IS, S), WithDurable()); err != nil {
		t.Fatal(err)
	}
	for _, h := range m.HeldLocks(1) {
		if !h.Durable {
			t.Errorf("%v not durable after durable batch", h.Resource)
		}
	}
}

func TestAcquireBatchFallbackOnConflict(t *testing.T) {
	m := NewManager(Options{})
	// Txn 2 X-locks the relation, so txn 1's batch grants db and db/seg,
	// then conflicts on db/seg/rel and falls back to the wait path.
	if err := m.AcquireCtx(context.Background(), 2, "db/seg/rel", X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- m.AcquireBatch(context.Background(), 1, chainReqs(IS, S))
	}()
	select {
	case err := <-done:
		t.Fatalf("batch completed while X held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The compatible prefix must already be granted.
	if got := heldMode(m, 1, "db"); got != IS {
		t.Errorf("db held %v, want IS while blocked", got)
	}
	if got := heldMode(m, 1, "db/seg"); got != IS {
		t.Errorf("db/seg held %v, want IS while blocked", got)
	}
	m.ReleaseAll(2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("batch not completed after conflicting lock released")
	}
	if got := heldMode(m, 1, "db/seg/rel/t1"); got != S {
		t.Errorf("leaf held %v, want S", got)
	}
	st := m.Stats()
	if st.BatchFallbacks != 1 {
		t.Errorf("BatchFallbacks = %d, want 1", st.BatchFallbacks)
	}
	if st.BatchFastGrants != 2 {
		t.Errorf("BatchFastGrants = %d, want 2", st.BatchFastGrants)
	}
	if st.Waits == 0 {
		t.Error("expected the fallback to record a wait")
	}
}

func TestAcquireBatchNoWaitFallback(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireCtx(context.Background(), 2, "db/seg/rel", X); err != nil {
		t.Fatal(err)
	}
	err := m.AcquireBatch(context.Background(), 1, chainReqs(IS, S), WithNoWait())
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("want ErrWouldBlock, got %v", err)
	}
	// Prefix grants survive the refused tail (the caller aborts or retries).
	if got := heldMode(m, 1, "db"); got != IS {
		t.Errorf("db held %v, want IS", got)
	}
}

func TestAcquireBatchCanceledContext(t *testing.T) {
	m := NewManager(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.AcquireBatch(ctx, 1, chainReqs(IS, S))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := m.LockCount(); n != 0 {
		t.Errorf("LockCount = %d after pre-canceled batch, want 0", n)
	}
}

func TestAcquireBatchInvalidMode(t *testing.T) {
	m := NewManager(Options{})
	if err := m.AcquireBatch(context.Background(), 1, []BatchReq{{"a", None}}); err == nil {
		t.Fatal("want error for None mode")
	}
	if err := m.AcquireBatch(context.Background(), 1, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestAcquireBatchManyShards exercises the multi-latch path with more
// distinct resources than the stack index buffer holds.
func TestAcquireBatchManyShards(t *testing.T) {
	m := newManager(Options{}, 64)
	var reqs []BatchReq
	for _, r := range []Resource{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"} {
		reqs = append(reqs, BatchReq{r, X})
	}
	if err := m.AcquireBatch(context.Background(), 1, reqs); err != nil {
		t.Fatal(err)
	}
	if n := m.LockCount(); n != len(reqs) {
		t.Errorf("LockCount = %d, want %d", n, len(reqs))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAcquireBatchConcurrentStress hammers overlapping chains from many
// goroutines under -race: shared IS/IX ancestors, disjoint X leaves, with
// periodic ReleaseAll. Verifies the multi-latch fast path against the
// single-latch operations it interleaves with.
func TestAcquireBatchConcurrentStress(t *testing.T) {
	m := newManager(Options{}, 8)
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			txn := TxnID(id + 1)
			leaf := Resource("db/seg/rel/t" + string(rune('a'+id)))
			for i := 0; i < iters; i++ {
				reqs := []BatchReq{
					{"db", IX},
					{"db/seg", IX},
					{"db/seg/rel", IX},
					{leaf, X},
				}
				if err := m.AcquireBatch(context.Background(), txn, reqs); err != nil {
					t.Errorf("txn %d: %v", txn, err)
					return
				}
				if got := heldMode(m, txn, leaf); got != X {
					t.Errorf("txn %d holds %v on its leaf, want X", txn, got)
					return
				}
				m.ReleaseAll(txn)
			}
		}(w)
	}
	wg.Wait()
	if n := m.LockCount(); n != 0 {
		t.Errorf("LockCount = %d after all ReleaseAll, want 0", n)
	}
}

// countingInjector counts its consultations and injects nothing.
type countingInjector struct{ n atomic.Int64 }

func (c *countingInjector) InjectAcquire(TxnID, Resource, Mode) Injection {
	c.n.Add(1)
	return Injection{}
}

// roundSink keeps every delivery round it receives.
type roundSink struct{ rounds [][]Event }

func (s *roundSink) Record(e Event)          { s.rounds = append(s.rounds, []Event{e}) }
func (s *roundSink) RecordBatch(evs []Event) { s.rounds = append(s.rounds, slices.Clone(evs)) }

// releasingOnPark returns a context whose park notification releases holder's
// locks: a request made under it parks behind holder and is granted by that
// release before it sleeps, all on the requesting goroutine.
func releasingOnPark(m *Manager, holder TxnID) context.Context {
	return WithParkNotify(context.Background(), func() { m.ReleaseAll(holder) })
}

// TestBatchInjectsOncePerCall: a batch whose second request waits is still
// one call, so the injector is consulted once.
func TestBatchInjectsOncePerCall(t *testing.T) {
	m := NewManager(Options{})
	inj := &countingInjector{}
	m.SetInjector(inj)
	if err := m.AcquireCtx(context.Background(), 5, "b", X); err != nil {
		t.Fatal(err)
	}
	inj.n.Store(0)
	reqs := []BatchReq{{"a", IX}, {"b", X}, {"c", X}}
	if err := m.AcquireBatch(releasingOnPark(m, 5), 1, reqs); err != nil {
		t.Fatal(err)
	}
	if n := inj.n.Load(); n != 1 {
		t.Errorf("injector consulted %d times for one batch, want 1", n)
	}
}

// TestBatchRestAfterWait: once a batch's waiting request is granted, the rest
// of the batch is one more round, counted once per request.
func TestBatchRestAfterWait(t *testing.T) {
	sink := &roundSink{}
	m := NewManager(Options{Sinks: []EventSink{sink}})
	if err := m.AcquireCtx(context.Background(), 5, "b", X); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	sink.rounds = nil
	reqs := []BatchReq{{"a", IX}, {"b", X}, {"c", X}, {"d", S}}
	if err := m.AcquireBatch(releasingOnPark(m, 5), 1, reqs); err != nil {
		t.Fatal(err)
	}
	d := m.Stats().Sub(before)
	if d.Requests != 4 || d.Conflicts != 1 || d.Waits != 1 {
		t.Errorf("requests/conflicts/waits = %d/%d/%d, want 4/1/1", d.Requests, d.Conflicts, d.Waits)
	}
	if d.Batches != 1 || d.BatchFastGrants != 1 || d.BatchFallbacks != 1 {
		t.Errorf("batches/fast grants/fallbacks = %d/%d/%d, want 1/1/1", d.Batches, d.BatchFastGrants, d.BatchFallbacks)
	}
	last := sink.rounds[len(sink.rounds)-1]
	if len(last) != 2 || last[0].Resource != "c" || last[1].Resource != "d" ||
		last[0].Code != KindGrant || last[1].Code != KindGrant || last[0].Txn != 1 || last[1].Txn != 1 {
		t.Errorf("last delivery round = %+v, want txn 1's grants of c and d", last)
	}
	held := m.HeldLocks(1)
	if len(held) != len(reqs) {
		t.Fatalf("held %v, want the 4 requests", held)
	}
	for i, h := range held {
		if h.Resource != reqs[i].Resource || h.Mode != reqs[i].Mode {
			t.Errorf("held[%d] = %v %v, want %v %v (root-to-leaf order)", i, h.Resource, h.Mode, reqs[i].Resource, reqs[i].Mode)
		}
	}
}

// BenchmarkBatchConflict times the conflict path of a chain: a 5-request
// batch whose third request parks behind a holder's X lock, which the park
// notification releases, so the batch waits once and then takes the last
// two requests. One op is the holder's acquire, the batch and its release.
func BenchmarkBatchConflict(b *testing.B) {
	m := NewManager(Options{})
	var reqs []IDReq
	for _, r := range chainReqs(IX, X) {
		reqs = append(reqs, IDReq{ID: m.Intern(r.Resource), Mode: r.Mode})
	}
	reqs = append(reqs, IDReq{ID: m.Intern("db/seg/rel/t2"), Mode: X})
	bg, ctx := context.Background(), releasingOnPark(m, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.AcquireID(bg, 2, reqs[2].ID, X); err != nil {
			b.Fatal(err)
		}
		if err := m.AcquireBatchID(ctx, 1, reqs); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(1)
	}
	b.StopTimer()
	if st := m.Stats(); st.Waits != uint64(b.N) {
		b.Fatalf("%d waits over %d ops, want one each", st.Waits, b.N)
	}
}
