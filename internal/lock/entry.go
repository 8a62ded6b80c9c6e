package lock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The per-resource entry keeps, next to its holder storage and wait queue,
// incrementally maintained summaries that make the grant/deny decision O(1):
//
//   - modeCount[m]: how many holders currently hold mode m,
//   - group: the supremum (Sup fold) of all granted modes — the "group mode"
//     of System R fame. Because the mode lattice is monotone under the
//     compatibility relation (x Covers y ⇒ compat[r][x] ⇒ compat[r][y]),
//     a request compatible with the group mode is compatible with every
//     individual holder, so the common uncontended check is ONE array lookup
//     instead of a scan over dozens of IS/IX holders on a hot DAG root.
//   - queueCount[m]: how many queued waiters target mode m, so the FIFO
//     fairness check ("would I overtake an incompatible earlier waiter?")
//     answers "no conflict" without walking the queue.
//
// Exact scans remain as slow paths: when the summaries report a potential
// conflict, the per-holder/per-waiter loops run to honor the self-skip
// semantics (a transaction never conflicts with itself). checkSummary
// asserts summary == fold(storage) and is wired into the -race stress test.
//
// Holders live in one slice sorted by TxnID, whatever their number: lookup
// is a binary search, a new holder younger than every resident (the common
// arrival, since ids grow in start order) appends, a removal copies the tail
// down, and the oldest holder is slots[0]. Entries and waiters come from
// sync.Pools — see the lifecycle notes on putWaiter.

// holderSlot is one holder: the key alongside the value.
type holderSlot struct {
	txn TxnID
	h   heldLock
}

type entry struct {
	// slots holds the granted holders, sorted by txn. Pointers into slots
	// (from holder/addHolder) are invalidated by the next
	// addHolder/removeHolder call; never hold one across a mutation.
	slots []holderSlot

	queue []*waiter // conversions are kept ahead of plain waiters

	// Granted-group and queue summaries; see the package comment above.
	modeCount  [numModes]uint16
	queueCount [numModes]uint16
	group      Mode
	// grants numbers the entry's grants and conversions (heldLock.order):
	// the order SnapshotQueues lists holders in, kept per resource so that no
	// grant writes a word every grant on every resource writes.
	grants uint64
}

// find returns the index of txn's slot and true, or the index its slot
// would be inserted at and false. A txn younger than every holder — a new
// transaction's first request, the common case — is answered by the last
// slot alone.
func (e *entry) find(txn TxnID) (int, bool) {
	lo, hi := 0, len(e.slots)
	if hi == 0 || e.slots[hi-1].txn < txn {
		return hi, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.slots[mid].txn < txn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, e.slots[lo].txn == txn // lo < len: the last slot is not older
}

// holder returns txn's granted lock, or nil. The pointer is valid only
// until the next holder mutation on this entry.
func (e *entry) holder(txn TxnID) *heldLock {
	if i, ok := e.find(txn); ok {
		return &e.slots[i].h
	}
	return nil
}

// holderMode returns the mode txn holds (None if not a holder).
func (e *entry) holderMode(txn TxnID) Mode {
	if h := e.holder(txn); h != nil {
		return h.mode
	}
	return None
}

// addHolder installs a fresh holder for txn (mode None, counted into no
// summary until setMode) and returns it. txn must not already hold.
func (e *entry) addHolder(txn TxnID) *heldLock {
	i, _ := e.find(txn)
	e.slots = append(e.slots, holderSlot{})
	copy(e.slots[i+1:], e.slots[i:])
	e.slots[i] = holderSlot{txn: txn}
	return &e.slots[i].h
}

// removeHolder drops txn's granted lock, returning a copy of it. Summaries
// (modeCount, group) are maintained here.
func (e *entry) removeHolder(txn TxnID) (heldLock, bool) {
	i, ok := e.find(txn)
	if !ok {
		return heldLock{}, false
	}
	h := e.slots[i].h
	copy(e.slots[i:], e.slots[i+1:])
	e.slots = e.slots[:len(e.slots)-1]
	if h.mode != None {
		e.modeCount[h.mode]--
		e.refreshGroup()
	}
	return h, true
}

// setMode changes a holder's granted mode, keeping modeCount and the cached
// group mode in step. h must be a current holder of this entry.
func (e *entry) setMode(h *heldLock, mode Mode) {
	if h.mode == mode {
		return
	}
	if h.mode != None {
		e.modeCount[h.mode]--
	}
	if mode != None {
		e.modeCount[mode]++
	}
	h.mode = mode
	e.refreshGroup()
}

// refreshGroup recomputes the cached group mode from the per-mode counts —
// O(numModes), never O(holders).
func (e *entry) refreshGroup() {
	g := None
	for mo := Mode(1); mo < numModes; mo++ {
		if e.modeCount[mo] > 0 {
			g = Sup(g, mo)
		}
	}
	e.group = g
}

// compatGranted reports whether a request for target by a transaction
// currently holding own (None if not a holder) is compatible with every
// OTHER holder. It is O(numModes): the group-mode lookup answers the
// uncontended case in one array access, and the per-mode counts answer the
// rest without touching holder storage (the requester's own contribution is
// subtracted from its mode's count).
func (e *entry) compatGranted(own, target Mode) bool {
	if compat[target][e.group] {
		return true
	}
	for mo := Mode(1); mo < numModes; mo++ {
		n := e.modeCount[mo]
		if n == 0 || compat[target][mo] {
			continue
		}
		if mo == own {
			n--
		}
		if n > 0 {
			return false
		}
	}
	return true
}

// blockedByQueue reports whether a new (non-conversion) request must queue
// behind existing waiters for fairness. fast reports that the answer came
// from the queue summaries alone (empty queue, or no queued mode conflicts);
// when an incompatible queued mode exists the exact scan runs to honor the
// requester-self skip.
func (e *entry) blockedByQueue(txn TxnID, target Mode) (blocked, fast bool) {
	if len(e.queue) == 0 {
		return false, true
	}
	conflict := false
	for mo := Mode(0); mo < numModes; mo++ {
		if e.queueCount[mo] != 0 && !compat[target][mo] {
			conflict = true
			break
		}
	}
	if !conflict {
		return false, true
	}
	for _, w := range e.queue {
		if w.txn != txn && !compat[target][w.mode] {
			return true, false
		}
	}
	return false, false
}

// grantable decides whether a request (target mode, conversion flag) by txn
// currently holding own can be granted now. fast reports that the whole
// decision was served by the O(1) summaries — the SummaryFastChecks counter.
func (e *entry) grantable(txn TxnID, own, target Mode, convert bool) (ok, fast bool) {
	if !e.compatGranted(own, target) {
		return false, true // counts are summaries too: no storage touched
	}
	if convert {
		// Conversions bypass the queue: the transaction already holds the
		// lock, so FIFO fairness against new requests does not apply.
		return true, true
	}
	blocked, fastQ := e.blockedByQueue(txn, target)
	return !blocked, fastQ
}

// mustDie implements the wait-die rule: the requester dies if it is younger
// (higher TxnID) than any incompatible current holder or queued waiter. The
// holders are sorted by txn, so only those older than the requester are
// looked at.
func (e *entry) mustDie(txn TxnID, target Mode) bool {
	for i := range e.slots {
		if e.slots[i].txn >= txn {
			break
		}
		if !compat[target][e.slots[i].h.mode] {
			return true
		}
	}
	for _, w := range e.queue {
		if w.txn < txn && !compat[target][w.mode] {
			return true
		}
	}
	return false
}

// enqueue inserts w into the wait queue (conversions after existing
// conversion waiters but ahead of plain waiters — the classic conversion
// priority) and returns its position. Queue summaries are maintained here.
func (e *entry) enqueue(w *waiter) int {
	pos := len(e.queue)
	if w.convert {
		i := 0
		for i < len(e.queue) && e.queue[i].convert {
			i++
		}
		e.queue = append(e.queue, nil)
		copy(e.queue[i+1:], e.queue[i:])
		e.queue[i] = w
		pos = i
	} else {
		e.queue = append(e.queue, w)
	}
	e.queueCount[w.mode]++
	return pos
}

// dequeueAt removes and returns the waiter at index i, maintaining the
// queue summaries.
func (e *entry) dequeueAt(i int) *waiter {
	w := e.queue[i]
	copy(e.queue[i:], e.queue[i+1:])
	e.queue[len(e.queue)-1] = nil
	e.queue = e.queue[:len(e.queue)-1]
	e.queueCount[w.mode]--
	return w
}

// removeWaiterPtr removes w (by identity) from the queue, reporting whether
// it was present.
func (e *entry) removeWaiterPtr(w *waiter) bool {
	for i, q := range e.queue {
		if q == w {
			e.dequeueAt(i)
			return true
		}
	}
	return false
}

// empty reports whether the entry can be dropped (and recycled).
func (e *entry) empty() bool { return len(e.slots) == 0 && len(e.queue) == 0 }

// checkSummary recomputes every summary from the underlying storage and
// returns an error on any mismatch. The randomized -race stress test calls
// it after every mutation; production code never does. A nil entry — an
// empty slot of a shard's table — has nothing to check.
func (e *entry) checkSummary() error {
	if e == nil {
		return nil
	}
	var mc [numModes]uint16
	for i := range e.slots {
		if i > 0 && e.slots[i-1].txn >= e.slots[i].txn {
			return fmt.Errorf("holder slots out of order at %d", i)
		}
		if mo := e.slots[i].h.mode; mo != None {
			mc[mo]++
		}
	}
	g := None
	for mo := Mode(1); mo < numModes; mo++ {
		if mc[mo] != e.modeCount[mo] {
			return fmt.Errorf("modeCount[%v]=%d, fold gives %d", mo, e.modeCount[mo], mc[mo])
		}
		if mc[mo] > 0 {
			g = Sup(g, mo)
		}
	}
	if g != e.group {
		return fmt.Errorf("group=%v, fold gives %v", e.group, g)
	}
	var qc [numModes]uint16
	for _, w := range e.queue {
		qc[w.mode]++
	}
	if qc != e.queueCount {
		return fmt.Errorf("queueCount=%v, fold gives %v", e.queueCount, qc)
	}
	return nil
}

// ---- free lists -----------------------------------------------------------

// Pool lifecycle discipline (the recycle-race rules):
//
//   - A waiter is recycled ONLY by the goroutine that owns its outcome: the
//     blocked requester after receiving from ready, or after withdraw
//     removed it from the queue under the shard latch. Other actors
//     (granters, another waiter's deadlock walk) may touch a waiter only
//     under the shard latch after proving it current — by queue membership
//     (removeWaiterPtr) or by pointer-equality with the waits-for record.
//   - The ready channel and the deadlock-check timer are reused across
//     lives; putWaiter drains a raced buffered outcome so a recycled waiter
//     never wakes spuriously, and await leaves the timer stopped and drained.
//   - Entries are recycled only when empty (maybeDropEntry), so their
//     summaries are all-zero by construction; putEntry restarts the grant
//     numbering.

var waiterPool = sync.Pool{New: func() any { return &waiter{ready: make(chan error, 1)} }}

// waiterGen issues the per-checkout identity stamps (see waiter.gen).
var waiterGen atomic.Uint64

func getWaiter() *waiter {
	w := waiterPool.Get().(*waiter)
	w.gen = waiterGen.Add(1)
	return w
}

func putWaiter(w *waiter) {
	select {
	case <-w.ready: // drop a raced, already-owned outcome
	default:
	}
	w.txn, w.mode, w.convert, w.durable, w.done = 0, None, false, false, false
	w.enq = time.Time{}
	waiterPool.Put(w)
}

var entryPool = sync.Pool{New: func() any { return &entry{} }}

func getEntry() *entry { return entryPool.Get().(*entry) }

// putEntry recycles an empty entry (no holders, queue empty — counts are
// therefore already zero). The slices keep their capacity for the entry's
// next life.
func putEntry(e *entry) {
	e.grants = 0
	entryPool.Put(e)
}
