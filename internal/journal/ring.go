package journal

import "sync/atomic"

// eventRing is a bounded lock-free multi-producer single-consumer queue
// (Vyukov's bounded MPMC design, used here MPSC): producers are lock-event
// goroutines inside the manager's sink fan-out, the consumer is the
// Writer's background goroutine. A full ring makes push fail instead of
// blocking — the Writer counts the drop and the lock manager never waits
// on the journal.
type eventRing struct {
	mask  uint64
	slots []ringSlot
	head  atomic.Uint64 // next producer position
	tail  atomic.Uint64 // next consumer position
}

type ringSlot struct {
	seq atomic.Uint64
	rec Record
}

// newEventRing builds a ring with capacity rounded up to a power of two.
func newEventRing(capacity int) *eventRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &eventRing{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// reserve claims n consecutive positions with one CAS on head and returns
// the first; false when fewer than n slots are free. The consumer frees
// slots in order, so the claim is free exactly when its last slot is. The
// caller fills each claimed slot and publishes it, in position order.
func (r *eventRing) reserve(n uint64) (uint64, bool) {
	if n == 0 || n > r.mask+1 {
		return 0, false
	}
	for {
		pos := r.head.Load()
		last := pos + n - 1
		seq := r.slots[last&r.mask].seq.Load()
		switch {
		case seq == last:
			if r.head.CompareAndSwap(pos, pos+n) {
				return pos, true
			}
		case seq < last:
			return 0, false // the slot still holds an unconsumed record: full
		}
		// seq > last: another producer advanced head; retry with a fresh load.
	}
}

// publish makes the filled slot at pos visible to the consumer.
func (r *eventRing) publish(pos uint64) { r.slots[pos&r.mask].seq.Store(pos + 1) }

// pending reports whether a published record is waiting. Single consumer
// only.
func (r *eventRing) pending() bool {
	pos := r.tail.Load()
	return r.slots[pos&r.mask].seq.Load() == pos+1
}

// pop dequeues the oldest record; false when the ring is empty. Single
// consumer only.
func (r *eventRing) pop() (Record, bool) {
	pos := r.tail.Load()
	slot := &r.slots[pos&r.mask]
	seq := slot.seq.Load()
	if seq != pos+1 {
		return Record{}, false
	}
	rec := slot.rec
	slot.rec = Record{} // drop references for GC
	slot.seq.Store(pos + r.mask + 1)
	r.tail.Store(pos + 1)
	return rec, true
}
