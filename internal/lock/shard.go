package lock

import (
	"sync"
	"sync/atomic"
)

// The lock table is striped into power-of-two shards, each owning a slice of
// the resource id space behind its own latch: resource id i lives in shard
// i & (shards-1), in slot i >> log2(shards) of that shard's dense entry
// slice, so a request finds its stripe and its entry by two integer
// operations and hashes no string (names become ids once, in Intern or in
// the protocol's name cache). Disjoint-resource traffic — the common case
// the paper's fine-granularity protocol is designed to produce — therefore
// never serializes behind a single hot mutex.
//
// Latch-ordering discipline (violations deadlock the manager itself):
//
//  1. table-shard latch → txn-shard latch        (never the reverse)
//  2. table-shard latch → waits-for-table latch  (never the reverse)
//  3. every acquisition latches its stripes ascending; all other code holds
//     one at a time. A round of Manager.acquire latches its requests'
//     stripes in ascending index order, grants, and unlatches all but a
//     conflicting request's stripe; cross-shard work (ReleaseAll's sweep,
//     Snapshot, deadlock detection) works under one latch, releases it, and
//     re-latches the next shard. Single-latch code never acquires a second
//     stripe, and ascending-order acquisitions cannot cycle among
//     themselves, so the two regimes compose deadlock-free.
//  4. txn-shard, waits-for and id-table latches are leaves: code holding
//     them may not acquire any other manager latch.
//
// Event sinks are called with NO latch held (see Options.Sinks).

// cacheLine is the coherence unit of the x86-64 and arm64 machines the
// lock path is tuned for. Two words written by different cores must lie
// further apart than this, or every write invalidates the other core's copy
// of the line although no datum is shared ("false sharing").
const cacheLine = 64

// linePad separates what comes before it from what comes after by a full
// cache line, wherever the allocation starts: no alignment is assumed.
type linePad [cacheLine]byte

// tableShard is one stripe of the lock table: its resources' entries, by
// id, and the stripe's statistics counters. Everything in it is written by
// whoever holds its latch, so the pads keep one stripe's words off the
// cache lines of the next stripe and of unrelated heap neighbours.
type tableShard struct {
	_     linePad
	mu    sync.Mutex
	idx   int   // stripe index, stamped into trace events
	shift uint8 // log2 of the stripe count: slot = id >> shift
	// res holds the entry of resource (slot << shift | idx) at res[slot],
	// nil where the resource has no entry. It grows with the id space (a
	// pointer per id) and never shrinks; entries are pooled and dropped as
	// soon as nothing is granted or queued.
	res   []*entry
	live  int // non-nil entries in res
	stats shardStats
	_     linePad
}

func newTableShard(idx int, shift uint8) *tableShard {
	return &tableShard{idx: idx, shift: shift}
}

// id returns the resource id of res[slot].
func (s *tableShard) id(slot int) ResID { return ResID(slot)<<s.shift | ResID(s.idx) }

// get returns id's entry, or nil. Caller holds s.mu.
func (s *tableShard) get(id ResID) *entry {
	if i := int(id >> s.shift); i < len(s.res) {
		return s.res[i]
	}
	return nil
}

// entryFor returns (creating from the pool on demand) the shard's entry for
// id. Caller holds s.mu.
func (s *tableShard) entryFor(id ResID) *entry {
	i := int(id >> s.shift)
	if i >= len(s.res) {
		s.res = append(s.res, make([]*entry, i+1-len(s.res))...)
	}
	e := s.res[i]
	if e == nil {
		e = getEntry()
		s.res[i] = e
		s.live++
	}
	return e
}

// removeWaiter removes w from id's queue, reporting whether it was present.
// Caller holds s.mu. A false return means the waiter was already granted or
// withdrawn by a concurrent actor (its ready channel then carries the
// outcome).
func (s *tableShard) removeWaiter(id ResID, w *waiter) bool {
	e := s.get(id)
	if e == nil {
		return false
	}
	return e.removeWaiterPtr(w)
}

// maybeDropEntry recycles e, id's entry, once nothing is granted or queued.
// Caller holds s.mu.
func (s *tableShard) maybeDropEntry(id ResID, e *entry) {
	if e.empty() {
		s.res[id>>s.shift] = nil
		s.live--
		putEntry(e)
	}
}

// shardStats are one stripe's cumulative counters. They are plain atomics so
// that Stats() aggregates lock-free while the stripe stays hot; increments
// happen on the shard that serviced the request, keeping the cache line
// local under disjoint workloads.
type shardStats struct {
	requests    atomic.Uint64
	regrants    atomic.Uint64
	grants      atomic.Uint64
	conversions atomic.Uint64
	conflicts   atomic.Uint64
	waits       atomic.Uint64
	deadlocks   atomic.Uint64
	timeouts    atomic.Uint64
	cancels     atomic.Uint64
	downgrades  atomic.Uint64
	releases    atomic.Uint64
	summaryFast atomic.Uint64
}

func (ss *shardStats) addTo(st *Stats) {
	st.Requests += ss.requests.Load()
	st.Regrants += ss.regrants.Load()
	st.Grants += ss.grants.Load()
	st.Conversions += ss.conversions.Load()
	st.Conflicts += ss.conflicts.Load()
	st.Waits += ss.waits.Load()
	st.Deadlocks += ss.deadlocks.Load()
	st.Timeouts += ss.timeouts.Load()
	st.Cancels += ss.cancels.Load()
	st.Downgrades += ss.downgrades.Load()
	st.Releases += ss.releases.Load()
	st.SummaryFastChecks += ss.summaryFast.Load()
}

// txnShard is one stripe of the per-transaction held index (sharded by
// TxnID): one lock list per transaction holding anything, so that commit/abort
// release, HeldLocks and the protocol's "do I already hold this?" question
// (HeldCoversID) never sweep or latch the resource shards. Concurrent
// transactions have different ids, hence (mostly) different stripes: the
// pads keep each stripe on cache lines of its own, and the per-batch
// counters live here, striped by transaction, instead of on the manager.
type txnShard struct {
	_    linePad
	mu   sync.Mutex
	held map[TxnID]*heldList
	// gen numbers the lists this stripe checks out (heldList.gen); a
	// transaction's lists always come from its own stripe, so the stamps are
	// unique where they are compared. Written under mu.
	gen uint64
	// AcquireBatchID's counters (Stats.Batches, BatchFastGrants,
	// BatchFallbacks), by the batching transaction's stripe.
	batches        atomic.Uint64
	batchFast      atomic.Uint64
	batchFallbacks atomic.Uint64
	_              linePad
}

func newTxnShard() *txnShard {
	return &txnShard{held: make(map[TxnID]*heldList)}
}

// heldList is one transaction's lock list: what each of its holder slots in
// the lock table says, by resource id. It is written only under the latch of
// the table shard that owns the slot (then the txn-shard latch, rule 1), at
// the places a slot changes — so for every resource the list and the table
// agree whenever that resource's table-shard latch is free. Lists are pooled:
// the one a transaction's first grant checks out goes back, cleared, when its
// last lock is released.
type heldList struct {
	m IDMap[listedLock]
	// gen is stamped on every checkout from the pool and copied into each
	// holder slot the list records (heldLock.list). ReleaseAll takes the list
	// out of the index before sweeping the table; a slot carrying another
	// generation was re-recorded meanwhile and needs a real index delete.
	gen uint64
	// grants is the transaction's grant sequence: the number of grants and
	// conversions the list has recorded since its checkout.
	grants uint64
}

// listedLock is one list entry; the resource's table shard follows from its
// id.
type listedLock struct {
	mode    Mode
	durable bool
	seq     uint64
}

var heldListPool = sync.Pool{New: func() any { return new(heldList) }}

func putHeldList(l *heldList) {
	l.m.Clear()
	heldListPool.Put(l)
}

// record copies h, txn's holder slot on id, into txn's lock list. A grant
// or conversion (grant set) gives the listed lock the transaction's next
// grant sequence number; any other change (durability, a downgrade) keeps
// the one the list already has for id. Caller holds the latch of id's table
// shard.
func (ts *txnShard) record(txn TxnID, id ResID, h *heldLock, grant bool) {
	ts.mu.Lock()
	l := ts.held[txn]
	if l == nil {
		l = heldListPool.Get().(*heldList)
		ts.gen++
		l.gen, l.grants = ts.gen, 0
		ts.held[txn] = l
	}
	var it listedLock
	if !grant {
		it, _ = l.m.Get(id)
	}
	if it.seq == 0 {
		l.grants++
		it.seq = l.grants
	}
	it.mode, it.durable = h.mode, h.durable
	l.m.Put(id, it)
	h.list = l.gen
	ts.mu.Unlock()
}

// remove drops id from txn's lock list, recycling the list with its last
// lock. Caller holds the latch of id's table shard.
func (ts *txnShard) remove(txn TxnID, id ResID) {
	ts.mu.Lock()
	if l := ts.held[txn]; l != nil {
		l.m.delete(id)
		if l.m.Len() == 0 {
			delete(ts.held, txn)
			putHeldList(l)
		}
	}
	ts.mu.Unlock()
}

// detach takes txn's lock list out of the index and hands it to the caller
// (nil if txn holds nothing), who sweeps the table and recycles it.
func (ts *txnShard) detach(txn TxnID) *heldList {
	ts.mu.Lock()
	l := ts.held[txn]
	if l != nil {
		delete(ts.held, txn)
	}
	ts.mu.Unlock()
	return l
}

// waitRecord is a transaction's single outstanding lock request. Records
// are stored BY VALUE: get returns a copy, so readers never alias a record
// another goroutine may replace — and registering a wait allocates nothing
// (the waiter itself is pooled). The w pointer is an identity token for
// revalidation; it must not be dereferenced until the waiter is proven
// current under its resource's shard latch (pooled waiters recycle). gen is
// w's checkout stamp, captured at registration: comparing it alongside the
// pointer defeats pool ABA (same address, different blocked request).
type waitRecord struct {
	res ResID
	w   *waiter
	gen uint64
}

// waitTable is the cross-shard waits-for registry: which resource each
// blocked transaction is waiting on. It is the only structure the deadlock
// detector needs besides one resource shard at a time; its latch is a leaf
// in the ordering discipline.
type waitTable struct {
	mu      sync.Mutex
	waiting map[TxnID]waitRecord
}

func (wt *waitTable) put(txn TxnID, rec waitRecord) {
	wt.mu.Lock()
	wt.waiting[txn] = rec
	wt.mu.Unlock()
}

func (wt *waitTable) get(txn TxnID) (waitRecord, bool) {
	wt.mu.Lock()
	rec, ok := wt.waiting[txn]
	wt.mu.Unlock()
	return rec, ok
}

func (wt *waitTable) delete(txn TxnID) {
	wt.mu.Lock()
	delete(wt.waiting, txn)
	wt.mu.Unlock()
}

// size returns the number of outstanding lock requests without snapshotting
// them (the admission gate polls this on every conflicted acquire).
func (wt *waitTable) size() int {
	wt.mu.Lock()
	n := len(wt.waiting)
	wt.mu.Unlock()
	return n
}

// txns returns the transactions with an outstanding lock request at the
// moment of the call (unordered).
func (wt *waitTable) txns() []TxnID {
	wt.mu.Lock()
	out := make([]TxnID, 0, len(wt.waiting))
	for t := range wt.waiting {
		out = append(out, t)
	}
	wt.mu.Unlock()
	return out
}

// nextPow2 rounds n up to the next power of two (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
