package lock

import "sync"

// Deadlock detection over the sharded lock table. The waits-for graph has an
// edge T1 → T2 whenever T1 has an outstanding waiter that is incompatible
// with a lock granted to T2, or that queues behind an earlier incompatible
// waiter of T2. The victim is the youngest (highest TxnID) transaction on
// the detected cycle.
//
// Sharding makes detection a cross-shard concern: a walk never holds more
// than one shard latch at a time. It goes through the graph edge set by edge
// set — the waits-for registry (wf) names the resource each blocked
// transaction waits on, and the out-edges of one transaction are computed
// under that single resource's shard latch. Each edge is therefore accurate
// at the moment it is read, and a genuine cycle is stable (every member is
// blocked), so a walk started from the waiter whose arrival closed the cycle
// always finds it. Under heavy churn an edge read early in the walk can be
// gone by the end — a transiently observed "cycle" would then abort a victim
// spuriously, the classic price of latch-local detection. To keep that price
// small, a found cycle is not acted on until every one of its edges has been
// re-confirmed (confirmEdge): genuine cycles are stable, so they always pass,
// while a phantom must reproduce the same inconsistent interleaving at
// revalidation time to slip through. A lock convoy — one hot resource whose
// holder releases, wraps around, and re-queues behind its own former waiters
// — manufactures exactly these phantoms at high rate, and revalidation is
// what keeps convoys from bleeding spurious aborts.
//
// WHEN the walk runs: a blocked request runs its own check. Its goroutine is
// idle anyway, so after Options.DeadlockDefer a still-blocked waiter walks
// the graph from itself inside await and then keeps waiting. Grant-bound
// waits — the overwhelming majority — are woken before the deferral elapses
// and never pay for detection at all. Cycles are still always found: the
// waiter whose edge completed the cycle stays blocked (cycles don't resolve
// themselves), so its check finds the wait still live and its walk sees the
// full cycle. The cost is latency (a cycle lives ~DeadlockDefer longer) and a
// slightly wider window for the spurious-victim race above. A negative
// DeadlockDefer walks before parking, which finds a cycle as soon as it
// closes.
//
// Walks run one at a time (Manager.walkMu), so two members of one cycle never
// pick victims at the same time: a walk that starts after another's abort
// sees the broken cycle and aborts nobody.

// detect is the one place a waits-for walk starts: if txn's outstanding wait
// is still w — same pointer AND same checkout gen, the pool ABA guard — walk
// the graph from it and abort the youngest member of a cycle found. Called by
// w's owner with no latch held. The victim event reaches the sinks while
// walkMu is held, so nothing a sink does may wait for another walk.
func (m *Manager) detect(txn TxnID, w *waiter) {
	m.walkMu.Lock()
	defer m.walkMu.Unlock()
	if rec, ok := m.wf.get(txn); !ok || rec.w != w || rec.gen != w.gen {
		return // granted or withdrawn meanwhile; nothing to check
	}
	sc := detScratchPool.Get().(*detScratch)
	defer detScratchPool.Put(sc)
	m.detectorRuns.Add(1)
	if victim, found := m.findDeadlockVictim(txn, sc); found {
		m.abortWaiter(victim)
	}
}

// appendWaitsFor appends txn's waits-for out-edges to dst (deduped via
// seen, which the caller clears between nodes) and reports the resource and
// target mode of its outstanding request. It latches only the single shard
// of that resource. The registered waiter is dereferenced only after its
// queue membership is confirmed under the latch: queue presence and
// registry currency change together under this latch, and a waiter cannot
// be recycled while queued, so the deref is safe even though waiters are
// pooled.
func (m *Manager) appendWaitsFor(txn TxnID, dst []TxnID, seen map[TxnID]bool) (ResID, Mode, []TxnID) {
	rec, ok := m.wf.get(txn)
	if !ok {
		return 0, None, dst
	}
	s := m.shardFor(rec.res)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.get(rec.res)
	if e == nil {
		return rec.res, None, dst
	}
	pos := -1
	for i, w := range e.queue {
		if w == rec.w {
			pos = i
			break
		}
	}
	if pos < 0 {
		// Granted or withdrawn between registry and shard lookup; it no
		// longer blocks on anything (and rec.w must not be dereferenced).
		return rec.res, None, dst
	}
	return rec.res, rec.w.mode, e.appendBlockers(dst, seen, txn, rec.w.mode, pos)
}

// blockScratch is the pooled dedup scratch for blocker-set computation
// (blockerTxns, WaitsForEdges). The map is cleared on recycle so gets are
// ready to use.
type blockScratch struct {
	seen map[TxnID]bool
	out  []TxnID
}

var blockScratchPool = sync.Pool{New: func() any {
	return &blockScratch{seen: make(map[TxnID]bool, 16)}
}}

func getBlockScratch() *blockScratch { return blockScratchPool.Get().(*blockScratch) }

func putBlockScratch(sc *blockScratch) {
	clear(sc.seen)
	blockScratchPool.Put(sc)
}

// detScratch holds every buffer a waits-for walk needs, so detection is
// allocation-free at steady state: the finder's own buffers, the dedup set
// for one node's out-edges, and the edge list revalidation re-reads.
type detScratch struct {
	f     CycleFinder
	seen  map[TxnID]bool
	edges []TxnID
}

var detScratchPool = sync.Pool{New: func() any {
	return &detScratch{seen: make(map[TxnID]bool, 16)}
}}

// outEdges appends t's current waits-for out-edges to dst.
func (m *Manager) outEdges(sc *detScratch, t TxnID, dst []TxnID) []TxnID {
	clear(sc.seen)
	_, _, dst = m.appendWaitsFor(t, dst, sc.seen)
	return dst
}

// confirmEdge reports whether from currently blocks on to, by re-reading
// from's out-edges under the shard latch. Used to revalidate a detected
// cycle before aborting its victim.
func (m *Manager) confirmEdge(sc *detScratch, from, to TxnID) bool {
	sc.edges = m.outEdges(sc, from, sc.edges[:0])
	for _, t := range sc.edges {
		if t == to {
			return true
		}
	}
	return false
}

// findDeadlockVictim searches for a waits-for cycle reachable from start
// and, if one exists, returns the youngest transaction on it. It holds at
// most one shard latch at any moment (inside appendWaitsFor) and allocates
// nothing once the scratch buffers are warm. The first cycle found is
// revalidated edge by edge before it is reported: each edge of the walk was
// read at a different instant, so under churn the "cycle" may be a phantom
// assembled from edges that never coexisted (see the package comment). A
// real cycle is stable and always confirms.
func (m *Manager) findDeadlockVictim(start TxnID, sc *detScratch) (victim TxnID, ok bool) {
	sc.f.Reset()
	sc.f.Walk(start, func(t TxnID, dst []TxnID) []TxnID {
		return m.outEdges(sc, t, dst)
	}, func(cycle []TxnID) bool {
		// cycle[j+1] waits for cycle[j], and the closing edge is
		// cycle[0] → cycle[n-1]. Any gap means a phantom of the walk.
		n := len(cycle)
		for j := 0; j+1 < n; j++ {
			if !m.confirmEdge(sc, cycle[j+1], cycle[j]) {
				return false
			}
		}
		if m.confirmEdge(sc, cycle[0], cycle[n-1]) {
			victim, ok = Youngest(cycle), true
		}
		return false
	})
	return victim, ok
}

// abortWaiter makes victim's outstanding wait fail with ErrDeadlock. It
// reports false when the victim had no withdrawable waiter (already granted
// or withdrawn — the supposed cycle is then broken anyway). The registry
// record is revalidated by identity under the shard latch before the waiter
// is touched: between the racy first read and the latch the waiter may have
// been granted, recycled through the pool, and re-enqueued by a different
// transaction — without the recheck that innocent waiter would be aborted.
func (m *Manager) abortWaiter(victim TxnID) bool {
	rec, ok := m.wf.get(victim)
	if !ok {
		return false
	}
	tr := m.newTracer()
	s := m.shardFor(rec.res)
	s.mu.Lock()
	if cur, live := m.wf.get(victim); !live || cur.w != rec.w || cur.gen != rec.gen || cur.res != rec.res {
		s.mu.Unlock()
		tr.finish()
		return false
	}
	// Registry currency under the latch implies queue membership (the two
	// change together under this latch), so rec.w is safe to use from here.
	blockers := s.queuedBlockers(rec.res, rec.w)
	if !s.removeWaiter(rec.res, rec.w) {
		s.mu.Unlock()
		tr.finish()
		return false
	}
	m.wf.delete(victim)
	s.stats.deadlocks.Add(1)
	if tr != nil {
		tr.add(KindVictim, rec.w.enq, victim, m.Name(rec.res), rec.w.mode, s.idx).Blockers = blockers
	}
	// The victim learns its fate only after the victim event is delivered
	// (tr.finish below). From here the waiter belongs to the victim's
	// goroutine; rec.w is not touched again.
	rec.w.done = true
	tr.wakeAfter(rec.w, lockErrBlocked(victim, m.Name(rec.res), rec.w.mode, ErrDeadlock, blockers))
	// The victim's departure may unblock others.
	m.grantWaitersLocked(tr, s, s.get(rec.res), rec.res)
	s.mu.Unlock()
	tr.finish()
	return true
}
