package obs

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"colock/internal/lock"
)

func newTracedManager(t *testing.T, c *Collector) *lock.Manager {
	t.Helper()
	return lock.NewManager(lock.Options{Sinks: []lock.EventSink{c}})
}

func TestCollectorCountsAndHistograms(t *testing.T) {
	c := NewCollector(Options{})
	m := newTracedManager(t, c)

	const db = lock.Resource("db1")
	const rel = lock.Resource("db1/seg1/cells")
	const obj = lock.Resource("db1/seg1/cells/c1")
	if err := m.AcquireCtx(context.Background(), 1, db, lock.IX); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, rel, lock.IX); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, obj, lock.S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, obj, lock.X); err != nil { // conversion
		t.Fatal(err)
	}
	m.ReleaseAll(1)

	if got := c.EventCount("grant"); got != 3 {
		t.Errorf("grant count = %d, want 3", got)
	}
	if got := c.EventCount("convert"); got != 1 {
		t.Errorf("convert count = %d, want 1", got)
	}
	if got := c.EventCount("release"); got != 3 {
		t.Errorf("release count = %d, want 3", got)
	}

	// Uncontended acquires land in the acquire histogram only.
	if acq := c.Aggregate(OpAcquire); acq.Count != 4 {
		t.Errorf("acquire observations = %d, want 4", acq.Count)
	}
	if w := c.Aggregate(OpWait); w.Count != 0 {
		t.Errorf("wait observations = %d, want 0 (uncontended)", w.Count)
	}
	if h := c.Aggregate(OpHold); h.Count != 3 {
		t.Errorf("hold observations = %d, want 3", h.Count)
	}

	// Dimension routing: db is depth 1, obj root is depth 4 ("entry-point").
	if s := c.Hist(OpAcquire, lock.IX, "database"); s.Count != 1 {
		t.Errorf("IX/database acquires = %d, want 1", s.Count)
	}
	if s := c.Hist(OpAcquire, lock.X, "entry-point"); s.Count != 1 {
		t.Errorf("X/entry-point acquires (conversion) = %d, want 1", s.Count)
	}
}

func TestCollectorWaitHistogram(t *testing.T) {
	c := NewCollector(Options{})
	m := newTracedManager(t, c)
	r := lock.Resource("db1/seg1/cells/c1")

	if err := m.AcquireCtx(context.Background(), 1, r, lock.X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AcquireCtx(context.Background(), 2, r, lock.X) }()
	// Wait until txn 2 is queued, then release to grant it.
	for i := 0; m.WaitingTxns() == 0; i++ {
		if i > 1000 {
			t.Fatal("txn 2 never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(time.Millisecond) // txn 2 may have queued before the first look
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)

	w := c.Aggregate(OpWait)
	if w.Count != 1 {
		t.Fatalf("wait observations = %d, want 1", w.Count)
	}
	if w.Max < time.Millisecond {
		t.Errorf("wait max = %v, want ≥ 1ms (we held the lock that long)", w.Max)
	}
	if c.EventCount("wait") != 1 {
		t.Errorf("wait events = %d, want 1", c.EventCount("wait"))
	}
}

func TestCollectorTimeoutFeedsWaitHistogram(t *testing.T) {
	c := NewCollector(Options{})
	m := newTracedManager(t, c)
	r := lock.Resource("db1/seg1/cells/c1")

	if err := m.AcquireCtx(context.Background(), 1, r, lock.X); err != nil {
		t.Fatal(err)
	}
	err := m.AcquireCtx(context.Background(), 2, r, lock.S, lock.WithTimeout(5*time.Millisecond))
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	m.ReleaseAll(1)

	if c.EventCount("timeout") != 1 {
		t.Fatalf("timeout events = %d, want 1", c.EventCount("timeout"))
	}
	w := c.Aggregate(OpWait)
	if w.Count != 1 || w.Max < 5*time.Millisecond {
		t.Errorf("wait hist count=%d max=%v, want 1 observation ≥ 5ms", w.Count, w.Max)
	}
}

// The collector keeps counters and histograms only: folding a grant/release
// batch in touches atomics and retains nothing of the borrowed slice.
func TestCollectorRecordBatchZeroAlloc(t *testing.T) {
	c := NewCollector(Options{})
	now := time.Now()
	batch := []lock.Event{
		{Kind: "grant", Code: lock.KindGrant, Mode: lock.X, Txn: 1, Resource: "db1/seg1/cells/c1", Shard: 3, At: now, Dur: time.Microsecond},
		{Kind: "release", Code: lock.KindRelease, Mode: lock.X, Txn: 1, Resource: "db1/seg1/cells/c1", Shard: 3, At: now, Dur: time.Millisecond},
	}
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { c.RecordBatch(batch) }); allocs != 0 {
		t.Errorf("RecordBatch allocs/op = %.1f, want 0", allocs)
	}
	// AllocsPerRun calls the function once more than it is asked to, as warm-up.
	if g, r := c.EventCount("grant"), c.EventCount("release"); g != runs+1 || r != runs+1 {
		t.Errorf("grant/release counts = %d/%d, want %d each", g, r, runs+1)
	}
	if h := c.Hist(OpHold, lock.X, "entry-point"); h.Count != runs+1 {
		t.Errorf("hold observations = %d, want %d", h.Count, runs+1)
	}
}

func TestCollectorCustomKinds(t *testing.T) {
	kinds := []string{"hot", "cold"}
	c := NewCollector(Options{
		KindLabels: kinds,
		KindOf: func(r lock.Resource) int {
			if strings.HasPrefix(string(r), "hot/") {
				return 0
			}
			return 1
		},
	})
	m := newTracedManager(t, c)
	if err := m.AcquireCtx(context.Background(), 1, "hot/a", lock.S); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 1, "cold/b", lock.S); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if s := c.Hist(OpAcquire, lock.S, "hot"); s.Count != 1 {
		t.Errorf("hot acquires = %d, want 1", s.Count)
	}
	if s := c.Hist(OpAcquire, lock.S, "cold"); s.Count != 1 {
		t.Errorf("cold acquires = %d, want 1", s.Count)
	}
}

func TestDepthKindOf(t *testing.T) {
	cases := map[lock.Resource]string{
		"db1":                          "database",
		"db1/seg1":                     "segment",
		"db1/seg1/cells":               "relation",
		"db1/seg1/cells/c1":            "entry-point",
		"db1/seg1/cells/c1/robots/r1":  "node",
		"db1/seg1/cells/c1/surface/s1": "node",
	}
	for r, want := range cases {
		if got := DefaultKinds[DepthKindOf(r)]; got != want {
			t.Errorf("DepthKindOf(%q) = %s, want %s", r, got, want)
		}
	}
}

// Concurrent traffic through the collector must be race-free and lose no
// counter increments.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(Options{})
	m := newTracedManager(t, c)
	const goroutines, iters = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := lock.TxnID(g + 1)
			for i := 0; i < iters; i++ {
				r := lock.Resource("db1/seg1/cells/c" + string(rune('a'+i%8)))
				if err := m.AcquireCtx(context.Background(), txn, r, lock.S); err != nil {
					t.Error(err)
					return
				}
				m.ReleaseID(txn, m.Intern(r))
			}
		}(g)
	}
	wg.Wait()
	grants := c.EventCount("grant")
	releases := c.EventCount("release")
	if grants != goroutines*iters || releases != goroutines*iters {
		t.Fatalf("grants=%d releases=%d, want %d each", grants, releases, goroutines*iters)
	}
	if acq := c.Aggregate(OpAcquire); acq.Count != goroutines*iters {
		t.Fatalf("acquire observations = %d, want %d", acq.Count, goroutines*iters)
	}
}

// Literal events (Code zero) classify by name: their ID is not the
// manager's, so two of them with ID 0 and different names get their own
// kinds — even after a manager-built event filed id 0 under a third.
func TestCollectorLiteralEventsClassifyByName(t *testing.T) {
	c := NewCollector(Options{
		KindLabels: []string{"hot", "cold", "other"},
		KindOf: func(r lock.Resource) int {
			switch {
			case strings.HasPrefix(string(r), "hot/"):
				return 0
			case strings.HasPrefix(string(r), "cold/"):
				return 1
			}
			return 2
		},
	})
	m := newTracedManager(t, c)
	if err := m.AcquireCtx(context.Background(), 1, "hot/a", lock.S); err != nil {
		t.Fatal(err)
	}
	if id := m.Intern("hot/a"); id != 0 {
		t.Fatalf("hot/a has id %d, want 0", id)
	}
	c.RecordBatch([]lock.Event{
		{Kind: "grant", Mode: lock.X, Resource: "cold/b"},
		{Kind: "grant", Mode: lock.X, Resource: "hot/c"},
	})
	if s := c.Hist(OpAcquire, lock.X, "cold"); s.Count != 1 {
		t.Errorf("cold X acquires = %d, want 1", s.Count)
	}
	if s := c.Hist(OpAcquire, lock.X, "hot"); s.Count != 1 {
		t.Errorf("hot X acquires = %d, want 1", s.Count)
	}
	if got := c.EventCount("grant"); got != 3 {
		t.Errorf("grant count = %d, want 3", got)
	}
}

// A manager-built event is classified once per resource id — except that
// the fallback (last) label is not kept: a resource KindOf cannot place yet
// (a relation DDL adds later) is asked about again until it can.
func TestCollectorMemoSkipsFallback(t *testing.T) {
	known, calls := false, 0
	c := NewCollector(Options{
		KindLabels: []string{"tuple", "other"},
		KindOf: func(r lock.Resource) int {
			calls++
			if known {
				return 0
			}
			return 1
		},
	})
	m := newTracedManager(t, c)
	acquire := func(txn lock.TxnID) {
		t.Helper()
		if err := m.AcquireCtx(context.Background(), txn, "db/seg/rel/k", lock.S); err != nil {
			t.Fatal(err)
		}
	}
	acquire(1)
	acquire(2)
	if s := c.Hist(OpAcquire, lock.S, "other"); s.Count != 2 || calls != 2 {
		t.Errorf("before: %d acquires as other after %d KindOf calls, want 2 and 2", s.Count, calls)
	}
	known = true
	acquire(3)
	acquire(4)
	acquire(5)
	if s := c.Hist(OpAcquire, lock.S, "tuple"); s.Count != 3 || calls != 3 {
		t.Errorf("after: %d acquires as tuple after %d KindOf calls, want 3 and 3", s.Count, calls)
	}
}

// Eight goroutines classify the same 4,096 ids (four memo chunks), each in
// its own order, so the memo's slots and its directory are filled and
// grown concurrently; every event must land under its resource's kind.
// Run it under -race.
func TestCollectorMemoConcurrent(t *testing.T) {
	const goroutines, ids = 8, 4096
	c := NewCollector(Options{})
	evs := make([]lock.Event, ids)
	for i := range evs {
		name := "r" + strconv.Itoa(i) + strings.Repeat("/x", i%5) // DepthKindOf: i%5
		evs[i] = lock.Event{Kind: "grant", Code: lock.KindGrant, Mode: lock.S, Resource: lock.Resource(name), ID: lock.ResID(i)}
	}
	strides := [goroutines]int{1, 3, 5, 7, 9, 11, 13, 15} // odd: coprime to ids
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < ids; k++ {
				c.RecordBatch(evs[(k*strides[g]+g*97)%ids:][:1])
			}
		}(g)
	}
	wg.Wait()
	for kind := 0; kind < 5; kind++ {
		want := uint64(0)
		for i := kind; i < ids; i += 5 {
			want += goroutines
		}
		if s := c.Hist(OpAcquire, lock.S, DefaultKinds[kind]); s.Count != want {
			t.Errorf("%s acquires = %d, want %d", DefaultKinds[kind], s.Count, want)
		}
	}
}
