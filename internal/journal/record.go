// Package journal persists the lock manager's full event stream — grants,
// blocks, conversions, releases, victims, wait-die deaths, sheds, fast-path
// hits, SLO transitions — to a durable append-only binary journal so that
// incidents can be studied long after the in-memory observability rings and
// health windows have rotated. The live layers (obs, health, trace) answer
// "what is happening now"; the journal answers "what happened", replayable
// offline by cmd/colockreplay.
//
// The on-disk format is a directory of size-rotated segment files. Each
// segment is self-contained: an 8-byte magic header followed by
// length-prefixed records (uint32 length + uint32 CRC32 of the payload),
// where repeated strings (resource names, event kinds) are written once as
// interning records and referenced by varint id afterwards, keeping hot
// resources from bloating the journal. The final record of the final
// segment may be torn by a crash; the Reader detects and tolerates exactly
// that, recovering every record before the tear.
//
// The Writer is a lock.EventSink (and lock.BatchSink): the hot path copies
// an operation's events into a bounded lock-free ring and returns — it NEVER
// blocks the lock manager. A single background goroutine drains the ring in
// batches, interns, encodes and writes. When the ring is full the event is
// dropped and counted (colock_journal_dropped_total); durability is
// best-effort by design.
package journal

import (
	"fmt"

	"colock/internal/lock"
)

// Synthetic record kinds, extending the lock manager's vocabulary.
const (
	// KindFastPath stands for Hits protocol fast-path hits.
	KindFastPath = "fastpath"
	// KindHealth is an SLO transition, its summary in Resource (the
	// convention the colockshell trace ring shares).
	KindHealth = "health"
	// KindReset is a counter-reset marker of journals written before
	// counters became cumulative; readers skip it.
	KindReset = "reset"
)

// Record is one journaled event: a lock.Event plus the writer-assigned
// sequence number (its ordinal in file order, 1-based) and, on a
// KindFastPath record, the hit count. Decoding leaves Event.Code zero;
// KindCode resolves it from Kind.
type Record struct {
	lock.Event
	Seq uint64
	// Hits, on a KindFastPath record, is the number of consecutive
	// grant-cache hits the record stands for: the writer counts hits and
	// folds the count into the stream ahead of the next record it accepts,
	// stamped with that record's time.
	Hits uint64
}

// String renders the record for timelines and debugging.
func (r Record) String() string {
	return fmt.Sprintf("#%d %s txn=%d %s %s", r.Seq, r.Kind, r.Txn, r.Mode, r.Resource)
}
