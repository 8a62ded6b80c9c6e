package main

// Grant-path benchmark: measures what the PR-9 constant-time grant path —
// granted-group summaries, pooled wait blocks and deferred deadlock
// detection — buys over the pre-change scan-based path, and emits
// machine-readable BENCH_PR9.json.
//
// The "before" side is scanTable below — a frozen replica of the pre-PR9
// manager's grant decision: a per-resource granted MAP scanned holder by
// holder on every compatibility check, a waiter queue scanned end to end on
// every fairness check, and a freshly allocated waiter + ready channel for
// every blocked request. The replica is deliberately generous to the
// baseline: it omits the old inline-on-every-enqueue deadlock walk and its
// per-node map allocations, so the measured ratios UNDERSTATE the win under
// contention. The "after" side is the live lock.Manager.
//
// Two scenarios, per the paper's traffic shape:
//
//   - hot-root: the paper's hierarchy concentrates IS/IX traffic on DAG and
//     complex-object roots. grantResidents transactions park IS on one root;
//     workers then churn IS acquire/release against it. Every baseline
//     decision scans all resident holders; the new path answers from the
//     cached group mode in O(1).
//   - convoy: workers fight over one X-locked resource, so every request
//     blocks and every release hands the lock to a queued waiter — the
//     block-then-grant path the pooled wait blocks make allocation-free.
//
// Measurement discipline is hotbench's paired-ABBA slices: fixed work per
// slice, the two sides run back-to-back in alternating order, the row
// reports the median within-pair time ratio (machine-load drift divides
// out) plus each side's best-slice throughput.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"colock/internal/lock"
	"colock/internal/metrics"
)

// grantResidents is how many transactions sit on the hot root holding IS
// while the benchmark churns — the "dozens of concurrent readers on a
// coarse unit" regime the summaries are built for.
const grantResidents = 192

// ---- frozen pre-PR9 replica ------------------------------------------------

type scanHeld struct {
	mode lock.Mode
	seq  uint64
}

type scanWaiter struct {
	txn   lock.TxnID
	mode  lock.Mode
	ready chan struct{}
}

type scanEntry struct {
	granted map[lock.TxnID]*scanHeld
	queue   []*scanWaiter
}

// scanTable replicates the pre-PR9 grant path: map-scan compatibility,
// queue-scan fairness, heap-allocated wait blocks. One stripe suffices —
// both scenarios drive a single resource, so sharding is not what is being
// measured.
type scanTable struct {
	mu   sync.Mutex
	res  map[lock.Resource]*scanEntry
	held map[lock.TxnID]map[lock.Resource]struct{}
	seq  uint64
}

func newScanTable() *scanTable {
	return &scanTable{
		res:  make(map[lock.Resource]*scanEntry),
		held: make(map[lock.TxnID]map[lock.Resource]struct{}),
	}
}

// compatibleWithGranted is the seed's holder-by-holder scan.
func (e *scanEntry) compatibleWithGranted(txn lock.TxnID, mode lock.Mode) bool {
	for t, h := range e.granted {
		if t != txn && !mode.Compatible(h.mode) {
			return false
		}
	}
	return true
}

// hasBlockingQueue is the seed's end-to-end queue scan.
func (e *scanEntry) hasBlockingQueue(txn lock.TxnID, mode lock.Mode) bool {
	for _, w := range e.queue {
		if w.txn != txn && !mode.Compatible(w.mode) {
			return true
		}
	}
	return false
}

// grantLocked installs mode for txn on e, mirroring the seed's grant path
// (fresh heldLock allocation on first grant, per-txn held index upkeep).
func (m *scanTable) grantLocked(e *scanEntry, txn lock.TxnID, r lock.Resource, mode lock.Mode) {
	m.seq++
	h := e.granted[txn]
	if h == nil {
		h = &scanHeld{}
		e.granted[txn] = h
		tl := m.held[txn]
		if tl == nil {
			tl = make(map[lock.Resource]struct{})
			m.held[txn] = tl
		}
		tl[r] = struct{}{}
	}
	h.mode, h.seq = mode, m.seq
}

// acquire grants mode on r to txn, blocking on a freshly allocated wait
// block when the scan says no — the pre-change block-then-grant path. As in
// the seed, a blocked request is granted BY the releasing goroutine (FIFO
// handoff under the latch) and simply returns once its ready channel fires.
func (m *scanTable) acquire(txn lock.TxnID, r lock.Resource, mode lock.Mode) {
	m.mu.Lock()
	e := m.res[r]
	if e == nil {
		e = &scanEntry{granted: make(map[lock.TxnID]*scanHeld)}
		m.res[r] = e
	}
	if h := e.granted[txn]; h != nil && h.mode.Covers(mode) {
		m.mu.Unlock()
		return
	}
	if e.compatibleWithGranted(txn, mode) && !e.hasBlockingQueue(txn, mode) {
		m.grantLocked(e, txn, r, mode)
		m.mu.Unlock()
		return
	}
	w := &scanWaiter{txn: txn, mode: mode, ready: make(chan struct{}, 1)}
	e.queue = append(e.queue, w)
	m.mu.Unlock()
	<-w.ready // grant installed by the releaser's queue scan
}

// release drops txn's lock on r and grants the now-compatible FIFO prefix
// of the queue, as the seed's grantWaitersLocked did: scan front to back,
// grant and wake each compatible waiter, stop at the first blocked one.
func (m *scanTable) release(txn lock.TxnID, r lock.Resource) {
	m.mu.Lock()
	e := m.res[r]
	if e == nil {
		m.mu.Unlock()
		return
	}
	delete(e.granted, txn)
	if tl := m.held[txn]; tl != nil {
		delete(tl, r)
		if len(tl) == 0 {
			delete(m.held, txn)
		}
	}
	var woken []*scanWaiter
	for len(e.queue) > 0 {
		w := e.queue[0]
		if !e.compatibleWithGranted(w.txn, w.mode) {
			break
		}
		e.queue = e.queue[1:]
		m.grantLocked(e, w.txn, r, w.mode)
		woken = append(woken, w)
	}
	if len(e.granted) == 0 && len(e.queue) == 0 {
		delete(m.res, r)
	}
	m.mu.Unlock()
	for _, w := range woken {
		w.ready <- struct{}{}
	}
}

// ---- scenarios -------------------------------------------------------------

// grantScenario is one benchmark shape: a setup returning (body, teardown)
// per side.
type grantScenario struct {
	name string
	// opsPerIter is how many grant-path operations one body call performs.
	opsPerIter int
	baseline   func(workers int) func(id int)
	current    func(workers int) func(id int)
}

// hotRootScenario: grantResidents IS holders parked on one root, workers
// churning IS acquire/release. Residents take the LOW txn IDs and the
// churning workers the high ones — TxnIDs are assigned monotonically in
// real use, so long-lived residents are always older than fresh arrivals.
func hotRootScenario() grantScenario {
	const root = lock.Resource("db1")
	return grantScenario{
		name:       "hot_root_is",
		opsPerIter: 2, // one acquire + one release
		baseline: func(workers int) func(id int) {
			tb := newScanTable()
			for i := 0; i < grantResidents; i++ {
				tb.acquire(lock.TxnID(i+1), root, lock.IS)
			}
			return func(id int) {
				txn := lock.TxnID(10000 + id)
				tb.acquire(txn, root, lock.IS)
				tb.release(txn, root)
			}
		},
		current: func(workers int) func(id int) {
			mgr := lock.NewManager(lock.Options{})
			for i := 0; i < grantResidents; i++ {
				if err := mgr.AcquireCtx(context.Background(), lock.TxnID(i+1), root, lock.IS); err != nil {
					panic(err)
				}
			}
			return func(id int) {
				txn := lock.TxnID(10000 + id)
				if err := mgr.AcquireCtx(context.Background(), txn, root, lock.IS); err != nil {
					panic(err)
				}
				mgr.Release(txn, root)
			}
		},
	}
}

// convoyScenario: every worker X-locks the same gate, so nearly every
// acquire blocks and every release performs a queued handoff.
func convoyScenario() grantScenario {
	const gate = lock.Resource("gate")
	return grantScenario{
		name:       "convoy_x",
		opsPerIter: 2,
		baseline: func(workers int) func(id int) {
			tb := newScanTable()
			return func(id int) {
				txn := lock.TxnID(id + 1)
				tb.acquire(txn, gate, lock.X)
				tb.release(txn, gate)
			}
		},
		current: func(workers int) func(id int) {
			mgr := lock.NewManager(lock.Options{})
			return func(id int) {
				txn := lock.TxnID(id + 1)
				// Retry on ErrDeadlock: under convoy churn the latch-local
				// detector can (rarely) pick a spurious victim; a real
				// application retries, so the benchmark does too.
				for {
					err := mgr.AcquireCtx(context.Background(), txn, gate, lock.X)
					if err == nil {
						break
					}
					if !errors.Is(err, lock.ErrDeadlock) {
						panic(err)
					}
				}
				mgr.Release(txn, gate)
			}
		},
	}
}

// ---- report ----------------------------------------------------------------

// grantResult is one (scenario, goroutines) row; Speedup is the median
// within-pair baseline/current time ratio.
type grantResult struct {
	Scenario          string  `json:"scenario"`
	Goroutines        int     `json:"goroutines"`
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec"`
	CurrentOpsPerSec  float64 `json:"current_ops_per_sec"`
	Speedup           float64 `json:"speedup"`
}

type grantBenchReport struct {
	Benchmark   string        `json:"benchmark"`
	Description string        `json:"description"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Residents   int           `json:"hot_root_residents"`
	Results     []grantResult `json:"results"`
	// Heap allocations per block-then-grant operation (two-goroutine X
	// ping-pong on one resource), via runtime.ReadMemStats Mallocs deltas.
	BlockedAllocsPerOp         float64 `json:"blocked_allocs_per_op"`
	BaselineBlockedAllocsPerOp float64 `json:"baseline_blocked_allocs_per_op"`
	// Grant-path counters from the current side, proving the fast path and
	// the deferred detector were live during the run.
	SummaryFastChecks  uint64 `json:"summary_fast_checks"`
	DeferredDetections uint64 `json:"deferred_detections"`
	DetectorRuns       uint64 `json:"detector_runs"`
	// DeadlockResolved is the end-to-end detector probe: a real AB-BA cycle
	// was constructed on the deferred path and its victim saw ErrDeadlock.
	DeadlockResolved bool `json:"deadlock_resolved"`
}

// timeGrantWorkers runs iters body calls on each of workers goroutines and
// returns the wall time (fixed work under a wall clock; see tracebench).
func timeGrantWorkers(workers, iters int, body func(id int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				body(id)
			}
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// blockedAllocsPerOp measures heap allocations per block-then-grant
// operation: two goroutines ping-pong an X lock on one resource, so nearly
// every acquire parks and is granted by the other side's release. Each
// transaction also anchors an IS lock on a separate resource for the whole
// run — the paper's long check-out shape — so per-txn index churn is out of
// the picture and the measurement isolates the wait path itself.
func blockedAllocsPerOp(iters int) (current, baseline float64) {
	pingPong := func(acquire func(id int), warm, n int) float64 {
		run := func(k int) {
			var wg sync.WaitGroup
			for id := 0; id < 2; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for i := 0; i < k; i++ {
						acquire(id)
					}
				}(id)
			}
			wg.Wait()
		}
		run(warm)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(2*n)
	}

	mgr := lock.NewManager(lock.Options{})
	for id := 0; id < 2; id++ {
		anchor := lock.Resource(fmt.Sprintf("anchor-%d", id))
		if err := mgr.AcquireCtx(context.Background(), lock.TxnID(id+1), anchor, lock.IS); err != nil {
			panic(err)
		}
	}
	current = pingPong(func(id int) {
		txn := lock.TxnID(id + 1)
		for {
			err := mgr.AcquireCtx(context.Background(), txn, "pp", lock.X)
			if err == nil {
				break
			}
			if !errors.Is(err, lock.ErrDeadlock) {
				panic(err)
			}
		}
		mgr.Release(txn, "pp")
	}, iters/4, iters)

	tb := newScanTable()
	for id := 0; id < 2; id++ {
		tb.acquire(lock.TxnID(id+1), lock.Resource(fmt.Sprintf("anchor-%d", id)), lock.IS)
	}
	baseline = pingPong(func(id int) {
		txn := lock.TxnID(id + 1)
		tb.acquire(txn, "pp", lock.X)
		tb.release(txn, "pp")
	}, iters/4, iters)
	return current, baseline
}

// probeDeferredDetector constructs a real AB-BA deadlock on a
// deferred-detection manager and reports whether a victim saw ErrDeadlock,
// plus the manager's detector counters.
func probeDeferredDetector() (resolved bool, deferred, runs uint64) {
	mgr := lock.NewManager(lock.Options{DeadlockDefer: 200 * time.Microsecond})
	ctx := context.Background()
	_ = mgr.AcquireCtx(ctx, 1, "da", lock.X)
	_ = mgr.AcquireCtx(ctx, 2, "db", lock.X)
	r1 := make(chan error, 1)
	go func() { r1 <- mgr.AcquireCtx(ctx, 1, "db", lock.X) }()
	time.Sleep(10 * time.Millisecond)
	err2 := mgr.AcquireCtx(ctx, 2, "da", lock.X)
	resolved = errors.Is(err2, lock.ErrDeadlock)
	mgr.ReleaseAll(2)
	if err := <-r1; err == nil {
		mgr.ReleaseAll(1)
	}
	st := mgr.Stats()
	return resolved, st.DeferredDetections, st.DetectorRuns
}

// runGrantBench measures both scenarios at each worker count with the
// paired-ABBA slice discipline, then the allocation and detector probes.
func runGrantBench(workerCounts []int, dur time.Duration, allocIters int) *grantBenchReport {
	rep := &grantBenchReport{
		Benchmark: "grantbench",
		Description: "lock-manager grant-path throughput with PR-9 granted-group summaries + pooled " +
			"wait blocks + deferred detection vs a frozen replica of the pre-change map-scan path; " +
			fmt.Sprintf("hot-root scenario churns IS under %d resident IS holders, convoy scenario X-convoys one resource", grantResidents),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Residents:  grantResidents,
	}
	// Tiny bench heap: let GC fire at the explicit slice boundaries rather
	// than mid-measurement (same rationale as hotbench/tracebench).
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	const pairs = 35
	sliceDur := dur / 12
	for _, sc := range []grantScenario{hotRootScenario(), convoyScenario()} {
		for _, w := range workerCounts {
			runBase := sc.baseline(w)
			runCur := sc.current(w)
			const calIters = 500
			calDur := timeGrantWorkers(w, calIters, runBase)
			iters := int(float64(calIters) * float64(sliceDur) / float64(calDur+1))
			if iters < calIters {
				iters = calIters
			}
			base := func() time.Duration { defer runtime.GC(); return timeGrantWorkers(w, iters, runBase) }
			cur := func() time.Duration { defer runtime.GC(); return timeGrantWorkers(w, iters, runCur) }
			base() // warmup
			cur()
			ratios := make([]float64, 0, pairs)
			bestB, bestC := time.Duration(1<<62), time.Duration(1<<62)
			for i := 0; i < pairs; i++ {
				var b, c time.Duration
				if i%2 == 0 {
					b = base()
					c = cur()
				} else {
					c = cur()
					b = base()
				}
				ratios = append(ratios, float64(b)/float64(c))
				if b < bestB {
					bestB = b
				}
				if c < bestC {
					bestC = c
				}
			}
			sort.Float64s(ratios)
			ops := float64(w) * float64(iters) * float64(sc.opsPerIter)
			rep.Results = append(rep.Results, grantResult{
				Scenario:          sc.name,
				Goroutines:        w,
				BaselineOpsPerSec: ops / bestB.Seconds(),
				CurrentOpsPerSec:  ops / bestC.Seconds(),
				Speedup:           ratios[len(ratios)/2],
			})
		}
	}

	rep.BlockedAllocsPerOp, rep.BaselineBlockedAllocsPerOp = blockedAllocsPerOp(allocIters)

	// Counter evidence: one more current-side hot-root burst on a fresh
	// manager, counted via Stats.
	mgr := lock.NewManager(lock.Options{})
	const root = lock.Resource("db1")
	for i := 0; i < grantResidents; i++ {
		_ = mgr.AcquireCtx(context.Background(), lock.TxnID(i+1), root, lock.IS)
	}
	for n := 0; n < 500; n++ {
		_ = mgr.AcquireCtx(context.Background(), 10000, root, lock.IS)
		mgr.Release(10000, root)
	}
	rep.SummaryFastChecks = mgr.Stats().SummaryFastChecks

	resolved, deferred, runs := probeDeferredDetector()
	rep.DeadlockResolved = resolved
	rep.DeferredDetections = deferred
	rep.DetectorRuns = runs
	return rep
}

// writeGrantBench runs the benchmark and writes the JSON report to path.
func writeGrantBench(path string, workerCounts []int, dur time.Duration, allocIters int) (*grantBenchReport, error) {
	rep := runGrantBench(workerCounts, dur, allocIters)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// printGrantBench renders the report as a console table.
func printGrantBench(rep *grantBenchReport) {
	tab := metrics.NewTable(
		fmt.Sprintf("Grant-path speedup (GOMAXPROCS=%d, %d resident IS holders on the hot root)",
			rep.GOMAXPROCS, rep.Residents),
		"scenario", "goroutines", "baseline ops/s", "current ops/s", "speedup")
	for _, r := range rep.Results {
		tab.Addf(r.Scenario, r.Goroutines,
			fmt.Sprintf("%.0f", r.BaselineOpsPerSec),
			fmt.Sprintf("%.0f", r.CurrentOpsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	fmt.Println(tab.String())
	fmt.Printf("blocked path allocs/op: %.2f (baseline %.2f); summary fast checks %d; "+
		"deferred detections %d, detector runs %d, deadlock resolved %v\n",
		rep.BlockedAllocsPerOp, rep.BaselineBlockedAllocsPerOp, rep.SummaryFastChecks,
		rep.DeferredDetections, rep.DetectorRuns, rep.DeadlockResolved)
}
