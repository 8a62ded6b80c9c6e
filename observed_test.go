package colock_test

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"colock/client"
	"colock/internal/core"
	"colock/internal/engine"
	"colock/internal/lock"
	"colock/internal/resilience"
	"colock/internal/server"
	"colock/internal/store"
	"colock/internal/txn"
	"colock/internal/workload"
)

// Allocation pins for the engine's two wirings: sink-less, and
// internal/engine's assembly with a journal (what colockd -journal runs:
// every sink, every operation traced). A cell edit is Begin + 10 × LockPath + Commit on disjoint data:
// six c_objects (S×5, X) and four robots (S×3, X) of one cell — the
// transaction bench/ runs, so `go test ./...` sees an event-pipeline
// regression without the benchmark.

const pinCells = 64

// cellEdit is one pre-generated transaction script.
type cellEdit struct {
	paths [10]store.Path
	modes [10]lock.Mode
}

func cellEdits() []cellEdit {
	out := make([]cellEdit, pinCells)
	for c := range out {
		cell := "c" + strconv.Itoa(c)
		for k := 0; k < 6; k++ {
			out[c].paths[k] = store.P("cells", cell, "c_objects", "o"+strconv.Itoa(k))
			out[c].modes[k] = lock.S
		}
		for k := 0; k < 4; k++ {
			out[c].paths[6+k] = store.P("cells", cell, "robots", "r"+strconv.Itoa(k))
			out[c].modes[6+k] = lock.S
		}
		out[c].modes[5], out[c].modes[9] = lock.X, lock.X
	}
	return out
}

func pinStore() *store.Store {
	st := workload.Generate(workload.Config{Seed: 1, Cells: pinCells, CObjectsPerCell: 10,
		RobotsPerCell: 8, EffectorsPerRobot: 2, Effectors: 16, DisjointOnly: true})
	core.CollectStatistics(st)
	return st
}

// newObservedEngine is engine.Open with a journal: the assembly colockd
// -journal and colockshell -journal run, not a copy of it.
func newObservedEngine(tb testing.TB) *engine.Engine {
	tb.Helper()
	e, err := engine.Open(engine.Config{
		Store:       pinStore(),
		Policy:      lock.PolicyDetect,
		IncidentDir: tb.TempDir(),
		JournalDir:  tb.TempDir(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := e.Close(); err != nil {
			tb.Errorf("journal close: %v", err)
		}
	})
	return e
}

func bareTxnManager(tb testing.TB) *txn.Manager {
	st := pinStore()
	mgr := lock.NewManager(lock.Options{})
	tb.Cleanup(mgr.Close)
	return txn.NewManager(core.NewProtocol(mgr, st, core.NewNamer(st.Catalog(), false), core.Options{}), st)
}

func runCellEdit(tm *txn.Manager, e *cellEdit) error {
	ctx := context.Background()
	t, err := tm.BeginCtx(ctx)
	if err != nil {
		return err
	}
	for k := range e.paths {
		if err := t.LockPath(ctx, e.paths[k], e.modes[k]); err != nil {
			t.Abort()
			return err
		}
	}
	return t.Commit()
}

// skipUnlessPoolsRecycle skips an allocation pin when sync.Pool does not hand
// back what it was given: under the race detector it drops a quarter of all
// Puts on purpose, which turns every pooled object into an occasional
// allocation.
func skipUnlessPoolsRecycle(t *testing.T) {
	t.Helper()
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			t.Skip("sync.Pool is dropping objects (race detector on): allocation counts mean nothing")
		}
	}
}

// allocsPerCellEdit warms every script once (name cache, pools, rings) and
// then averages over several passes of the ring.
func allocsPerCellEdit(t *testing.T, tm *txn.Manager) float64 {
	t.Helper()
	edits := cellEdits()
	i := 0
	run := func() {
		if err := runCellEdit(tm, &edits[i%len(edits)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range edits {
		run()
	}
	return testing.AllocsPerRun(4*len(edits), run)
}

func TestCellEditAllocsObserved(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	e := newObservedEngine(t)
	// 213 before the event pipeline was batched and pooled, 48 before the
	// downward scan was compiled from the schema, 14 while every transaction
	// grew its own held-lock maps, 2 while the release-all event listed the
	// sweep's resources; measured 1 (the transaction handle), as on the
	// sink-less engine below, which runs the same protocol and manager code.
	if got := allocsPerCellEdit(t, e.Txns); got > 4 {
		t.Errorf("observed engine: %.1f allocs per cell edit, want ≤ 4", got)
	}
	if st := e.Journal.Status(); st.Dropped != 0 || st.Error != "" {
		t.Errorf("journal dropped %d records (error %q) with one client", st.Dropped, st.Error)
	}
	if got := e.Collector.EventCount("grant"); got == 0 {
		t.Error("collector saw no grants: the sinks were not live")
	}
}

func TestCellEditAllocsBare(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	// 52 while every S/X lock walked the stored value for references, 18
	// while every transaction grew its own held-lock maps and every cold
	// chain its batch slice; measured 1, the transaction handle. The ten
	// scans of a cell edit on disjoint data, the batches (built on the
	// stack), the lock list and the release sweep allocate nothing.
	if got := allocsPerCellEdit(t, bareTxnManager(t)); got > 3 {
		t.Errorf("sink-less engine: %.1f allocs per cell edit, want ≤ 3 (the nil-tracer path, the downward scan, the batches and the lock list must stay free)", got)
	}
}

// The sinks and the tracer observe; they do not steer. One pass of the script
// leaves the same protocol and manager counters on engine.Open's assembly as
// on the sink-less stack: same requests, same fast-path hits, same batches.
func TestObservedAndBareStacksCountAlike(t *testing.T) {
	edits := cellEdits()
	run := func(tm *txn.Manager) (core.ProtocolStats, lock.Stats) {
		t.Helper()
		for i := range edits {
			if err := runCellEdit(tm, &edits[i]); err != nil {
				t.Fatal(err)
			}
		}
		return tm.Protocol().Stats(), tm.Protocol().Manager().Stats()
	}
	obsProto, obsMgr := run(newObservedEngine(t).Txns)
	bareProto, bareMgr := run(bareTxnManager(t))
	if obsMgr.Batches == 0 || obsProto.FastPathHits == 0 {
		t.Fatalf("observed engine made no batches or no fast-path hits: %+v %+v", obsMgr, obsProto)
	}
	if obsProto != bareProto {
		t.Errorf("protocol counters differ:\nobserved %+v\nbare     %+v", obsProto, bareProto)
	}
	if obsMgr != bareMgr {
		t.Errorf("manager counters differ:\nobserved %+v\nbare     %+v", obsMgr, bareMgr)
	}
}

// The same cell edit through client, loopback TCP and server — 12 round
// trips — adds next to nothing to the engine's 1: requests and replies are
// encoded into the connections' write buffers and decoded out of their read
// buffers, path segments come from the session's intern table, and no
// goroutine is started. What is left is the client's and the session's
// per-transaction handles, one each. (227 when every frame was a fresh
// slice and every Commit a fresh goroutine.)
func TestCellEditAllocsOverWire(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	run := wireCellEdits(t)
	for i := 0; i < pinCells; i++ {
		run()
	}
	if got := testing.AllocsPerRun(4*pinCells, run); got > 5 { // measured 3
		t.Errorf("over the wire: %.1f allocs per cell edit across client and server, want ≤ 5", got)
	}
}

// wireCellEdits returns a function that runs the next cell edit of the ring
// through a client dialed to a loopback server over a sink-less engine.
func wireCellEdits(tb testing.TB) func() {
	srv := server.New(bareTxnManager(tb), server.Options{})
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cl, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	ctx := context.Background()
	edits := cellEdits()
	i := 0
	return func() {
		e := &edits[i%len(edits)]
		i++
		tx, err := cl.Begin(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		for k := range e.paths {
			if err := tx.LockPath(ctx, e.paths[k], e.modes[k]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
}

// A warm acquire/release pair allocates nothing without sinks: the
// transaction's lock list is pooled and ReleaseAll sweeps it in place.
// Tracing the pair through every sink (pooled tracer, events handed over as
// one borrowed slice) adds nothing either: the release-all summary carries
// no list of its own.
func TestTracedAcquireReleaseAllocs(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	ctx := context.Background()
	const res = lock.Resource("db1/seg1/cells/c1/robots/r1")
	pairOn := func(mgr *lock.Manager) func() {
		return func() {
			if err := mgr.AcquireCtx(ctx, 1, res, lock.X); err != nil {
				t.Fatal(err)
			}
			mgr.ReleaseAll(1)
		}
	}
	bare := lock.NewManager(lock.Options{})
	defer bare.Close()
	if got := testing.AllocsPerRun(500, pairOn(bare)); got != 0 {
		t.Errorf("untraced AcquireCtx + ReleaseAll: %.1f allocs, want 0", got)
	}

	traced := pairOn(newObservedEngine(t).Manager)
	for i := 0; i < 2048; i++ { // warm the tracer pool, the span buffers and the journal ring
		traced()
	}
	if got := testing.AllocsPerRun(500, traced); got != 0 {
		t.Errorf("traced AcquireCtx + ReleaseAll: %.1f allocs, want 0", got)
	}
}

// Eight goroutines share one observed engine: under -race this proves that
// pooled tracers, span buffers and journal slots are never touched after
// they were handed back.
func TestObservedEngineConcurrentStress(t *testing.T) {
	e := newObservedEngine(t)
	edits := cellEdits()
	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Neighbouring workers overlap on cells, so requests really
				// block, wake and (rarely) die as deadlock victims.
				err := runCellEdit(e.Txns, &edits[(w/2*7+i)%len(edits)])
				if _, retry := resilience.Classify(err); err != nil && !retry {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := e.Manager.LockCount(); n != 0 {
		t.Errorf("%d locks left after the stress", n)
	}
	counts := e.Collector.EventCounts()
	if counts["grant"]+counts["convert"] == 0 || counts["release-all"] == 0 {
		t.Errorf("collector counts %v: sinks not live", counts)
	}
}

// BenchmarkCellEditObserved is the observed_disjoint transaction of bench/
// as a testing.B benchmark, for profiling the event pipeline.
func BenchmarkCellEditObserved(b *testing.B) {
	e := newObservedEngine(b)
	benchCellEdits(b, e.Txns)
}

// BenchmarkCellEditBare is the same transaction on the sink-less engine.
func BenchmarkCellEditBare(b *testing.B) {
	benchCellEdits(b, bareTxnManager(b))
}

// BenchmarkCellEditBareParallel is BenchmarkCellEditBare from every
// goroutine of b.RunParallel — GOMAXPROCS of them, so run it with -cpu 1,2 —
// each editing its own cells: no two transactions conflict, and what stops
// it scaling is state every client writes.
func BenchmarkCellEditBareParallel(b *testing.B) {
	tm := bareTxnManager(b)
	edits := cellEdits()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(edits) {
		b.Skipf("%d goroutines for %d cells", workers, len(edits))
	}
	var next atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(next.Add(1)) - 1
		for i := w; pb.Next(); {
			if err := runCellEdit(tm, &edits[i]); err != nil {
				b.Error(err)
				return
			}
			if i += workers; i >= len(edits) {
				i = w
			}
		}
	})
}

// BenchmarkCellEditOverWire is the same transaction on that engine through
// client, loopback TCP and server.
func BenchmarkCellEditOverWire(b *testing.B) {
	run := wireCellEdits(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func benchCellEdits(b *testing.B, tm *txn.Manager) {
	edits := cellEdits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runCellEdit(tm, &edits[i%len(edits)]); err != nil {
			b.Fatal(err)
		}
	}
}
