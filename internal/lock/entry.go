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
//   - oldestHolder/oldestWaiter: lower bounds on the resident transaction
//     IDs, letting wait-die's mustDie prove "I am older than everyone here"
//     (the common survivable case) without a scan.
//
// Exact scans remain as slow paths: when the summaries report a potential
// conflict, the per-holder/per-waiter loops run to honor the self-skip
// semantics (a transaction never conflicts with itself). checkSummary
// asserts summary == fold(storage) and is wired into the -race stress test.
//
// Holder storage is hybrid: an inline slice sorted by TxnID serves entries
// with up to inlineHolders holders allocation-free; past that the entry
// spills to a map (pooled heldLock values). Entries and waiters themselves
// come from sync.Pools — see the lifecycle notes on putWaiter.

// inlineHolders is the holder count past which an entry's inline sorted
// slice spills to a map.
const inlineHolders = 8

// noTxn is the sentinel for "no resident transaction" in the oldest-ID
// bounds: larger than every real TxnID.
const noTxn = TxnID(^uint64(0))

// holderSlot is one inline holder: the key alongside the value so the
// common small entry needs no map at all.
type holderSlot struct {
	txn TxnID
	h   heldLock
}

type entry struct {
	// slots is the inline holder storage, sorted by txn, used while the
	// entry has at most inlineHolders holders and spill is nil. Pointers
	// into slots (from holder/addHolder) are invalidated by the next
	// addHolder/removeHolder call; never hold one across a mutation.
	slots []holderSlot
	// spill owns every holder once the entry has spilled; values are pooled
	// heldLocks. An entry never un-spills (it is recycled when empty).
	spill map[TxnID]*heldLock

	queue []*waiter // conversions are kept ahead of plain waiters

	// Granted-group and queue summaries; see the package comment above.
	modeCount    [numModes]uint16
	queueCount   [numModes]uint16
	group        Mode
	oldestHolder TxnID
	oldestWaiter TxnID
	nHolders     int
	// grants numbers the entry's grants and conversions (heldLock.order):
	// the order SnapshotQueues lists holders in, kept per resource so that no
	// grant writes a word every grant on every resource writes.
	grants uint64
}

// holderCount returns the number of granted holders.
func (e *entry) holderCount() int { return e.nHolders }

// holder returns txn's granted lock, or nil. The pointer is valid only
// until the next holder mutation on this entry.
func (e *entry) holder(txn TxnID) *heldLock {
	if e.spill != nil {
		return e.spill[txn]
	}
	for i := range e.slots {
		if e.slots[i].txn == txn {
			return &e.slots[i].h
		}
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
	e.nHolders++
	if txn < e.oldestHolder {
		e.oldestHolder = txn
	}
	if e.spill == nil && e.nHolders <= inlineHolders {
		// Insert into the sorted inline slice.
		pos := len(e.slots)
		for i := range e.slots {
			if e.slots[i].txn > txn {
				pos = i
				break
			}
		}
		e.slots = append(e.slots, holderSlot{})
		copy(e.slots[pos+1:], e.slots[pos:])
		e.slots[pos] = holderSlot{txn: txn}
		return &e.slots[pos].h
	}
	if e.spill == nil {
		// Spill: move the inline holders into a map and empty the slice.
		e.spill = make(map[TxnID]*heldLock, 2*inlineHolders)
		for i := range e.slots {
			h := getHeld()
			*h = e.slots[i].h
			e.spill[e.slots[i].txn] = h
		}
		e.slots = e.slots[:0]
	}
	h := getHeld()
	e.spill[txn] = h
	return h
}

// removeHolder drops txn's granted lock, returning a copy of it. Summaries
// (modeCount, group, oldestHolder) are maintained here.
func (e *entry) removeHolder(txn TxnID) (heldLock, bool) {
	var h heldLock
	if e.spill != nil {
		p := e.spill[txn]
		if p == nil {
			return h, false
		}
		h = *p
		delete(e.spill, txn)
		putHeld(p)
	} else {
		i := -1
		for j := range e.slots {
			if e.slots[j].txn == txn {
				i = j
				break
			}
		}
		if i < 0 {
			return h, false
		}
		h = e.slots[i].h
		copy(e.slots[i:], e.slots[i+1:])
		e.slots = e.slots[:len(e.slots)-1]
	}
	e.nHolders--
	if h.mode != None {
		e.modeCount[h.mode]--
		e.refreshGroup()
	}
	if txn == e.oldestHolder {
		e.recomputeOldestHolder()
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

func (e *entry) recomputeOldestHolder() {
	e.oldestHolder = noTxn
	if e.spill != nil {
		for t := range e.spill {
			if t < e.oldestHolder {
				e.oldestHolder = t
			}
		}
		return
	}
	if len(e.slots) > 0 {
		e.oldestHolder = e.slots[0].txn // slots are sorted by txn
	}
}

// forEachHolder calls fn for every holder until fn returns false. The
// *heldLock is valid only during the callback.
func (e *entry) forEachHolder(fn func(TxnID, *heldLock) bool) {
	if e.spill != nil {
		for t, h := range e.spill {
			if !fn(t, h) {
				return
			}
		}
		return
	}
	for i := range e.slots {
		if !fn(e.slots[i].txn, &e.slots[i].h) {
			return
		}
	}
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
// oldest-resident bounds prove the common survivable case ("requester is
// older than everyone here") without a scan; only potential deaths — already
// the slow path, they end in an abort — run the exact loops.
func (e *entry) mustDie(txn TxnID, target Mode) bool {
	if txn < e.oldestHolder && txn < e.oldestWaiter {
		return false
	}
	die := false
	e.forEachHolder(func(t TxnID, h *heldLock) bool {
		if t != txn && !compat[target][h.mode] && txn > t {
			die = true
			return false
		}
		return true
	})
	if die {
		return true
	}
	for _, w := range e.queue {
		if w.txn != txn && !compat[target][w.mode] && txn > w.txn {
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
	if w.txn < e.oldestWaiter {
		e.oldestWaiter = w.txn
	}
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
	if w.txn == e.oldestWaiter {
		e.oldestWaiter = noTxn
		for _, q := range e.queue {
			if q.txn < e.oldestWaiter {
				e.oldestWaiter = q.txn
			}
		}
	}
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
func (e *entry) empty() bool { return e.nHolders == 0 && len(e.queue) == 0 }

// checkSummary recomputes every summary from the underlying storage and
// returns an error on any mismatch. The randomized -race stress test calls
// it after every mutation; production code never does. A nil entry — an
// empty slot of a shard's table — has nothing to check.
func (e *entry) checkSummary() error {
	if e == nil {
		return nil
	}
	var mc [numModes]uint16
	n := 0
	oldest := noTxn
	e.forEachHolder(func(t TxnID, h *heldLock) bool {
		if h.mode != None {
			mc[h.mode]++
		}
		if t < oldest {
			oldest = t
		}
		n++
		return true
	})
	if n != e.nHolders {
		return fmt.Errorf("nHolders=%d, storage has %d", e.nHolders, n)
	}
	if oldest != e.oldestHolder {
		return fmt.Errorf("oldestHolder=%d, fold gives %d", e.oldestHolder, oldest)
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
	oldestW := noTxn
	for _, w := range e.queue {
		qc[w.mode]++
		if w.txn < oldestW {
			oldestW = w.txn
		}
	}
	if qc != e.queueCount {
		return fmt.Errorf("queueCount=%v, fold gives %v", e.queueCount, qc)
	}
	if oldestW != e.oldestWaiter {
		return fmt.Errorf("oldestWaiter=%d, fold gives %d", e.oldestWaiter, oldestW)
	}
	if e.spill == nil && len(e.slots) > 1 {
		for i := 1; i < len(e.slots); i++ {
			if e.slots[i-1].txn >= e.slots[i].txn {
				return fmt.Errorf("inline slots out of order at %d", i)
			}
		}
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
//     numbering and getEntry resets the sentinels.

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

func getEntry() *entry {
	e := entryPool.Get().(*entry)
	e.group = None
	e.oldestHolder, e.oldestWaiter = noTxn, noTxn
	return e
}

// putEntry recycles an empty entry (nHolders == 0, queue empty — counts are
// therefore already zero). The spill map is kept for the entry's next life.
func putEntry(e *entry) {
	e.slots = e.slots[:0]
	e.queue = e.queue[:0]
	e.grants = 0
	entryPool.Put(e)
}

var heldPool = sync.Pool{New: func() any { return new(heldLock) }}

func getHeld() *heldLock { return heldPool.Get().(*heldLock) }

func putHeld(h *heldLock) {
	*h = heldLock{}
	heldPool.Put(h)
}
