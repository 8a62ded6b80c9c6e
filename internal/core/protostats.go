package core

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"colock/internal/lock"
)

// ProtocolStats counts the protocol's rule applications (§4.4.2, rules 1–5
// and rule 4′), quantifying how much implicit propagation the scheme costs
// on top of the explicit requests. All counters are cumulative and safe for
// concurrent use.
type ProtocolStats struct {
	// Requests counts top-level Lock/LockWith calls.
	Requests uint64
	// NoFollow counts the subset of Requests that suppressed downward
	// propagation (the §4.5 reference-only optimization).
	NoFollow uint64
	// MemoHits counts resources skipped because the same call had already
	// requested a covering mode (diamond-shaped sharing, reference cycles).
	MemoHits uint64
	// UpwardLocks counts intention locks placed on immediate parents —
	// rules 1–4's requirement serviced in the rule 5 root-to-leaf order,
	// including the implicit upward propagation above entry points.
	UpwardLocks uint64
	// EntryPointScans counts S/X requests that looked for dependent entry
	// points below their node (the downward half of rules 3 and 4), whether
	// the schema answered or the store had to be scanned.
	EntryPointScans uint64
	// LateEntryPoints counts entry points found only by the re-check after
	// the node's own grant: references added below the node while the
	// request waited for it.
	LateEntryPoints uint64
	// DownwardPropagations counts entry points recursively locked by
	// downward propagation (rule 3 for S, rule 4 for X).
	DownwardPropagations uint64
	// Rule4PrimeWeakened counts X propagations demoted to S by rule 4′
	// because the transaction lacks modify authorization on the inner unit.
	Rule4PrimeWeakened uint64
	// NodeLocks counts locks acquired on the explicitly requested nodes
	// themselves (Requests minus validation failures, plus recursion
	// targets).
	NodeLocks uint64
	// FastPathHits counts lock requests the transaction's lock list answered
	// (Manager.HeldCoversID) without a lock-manager request: IS/IX
	// re-acquisitions covered by a lock the transaction already holds. Hits
	// emit no trace span.
	FastPathHits uint64
	// BatchedLocks counts manager acquisitions that went through
	// Manager.AcquireBatch (one latch round per chain) rather than
	// one-at-a-time AcquireCtx calls.
	BatchedLocks uint64
}

// cacheLine is the coherence unit of the x86-64 and arm64 machines the lock
// path is tuned for; linePad keeps what precedes it and what follows it on
// different cache lines, whatever the alignment of the allocation.
const cacheLine = 64

type linePad [cacheLine]byte

// protoStripes is the number of counter stripes: concurrent transactions
// have nearby ids, so two of them share a stripe only when their ids are a
// multiple of protoStripes apart.
const protoStripes = 32

// protoCounters is the atomic backing store embedded in Protocol: one
// stripe per txn id residue, each on cache lines of its own, so concurrent
// transactions count into different lines and Stats sums the stripes. The
// protocol's read-mostly fields sit before it, behind stripe 0's pad.
type protoCounters [protoStripes]protoStripe

// protoStripe is one stripe of the rule counters.
type protoStripe struct {
	_             linePad
	requests      atomic.Uint64
	noFollow      atomic.Uint64
	memoHits      atomic.Uint64
	upwardLocks   atomic.Uint64
	entryScans    atomic.Uint64
	lateEntries   atomic.Uint64
	downward      atomic.Uint64
	rule4Weakened atomic.Uint64
	nodeLocks     atomic.Uint64
	fastPathHits  atomic.Uint64
	batchedLocks  atomic.Uint64
}

// of returns txn's stripe.
func (pc *protoCounters) of(txn lock.TxnID) *protoStripe {
	return &pc[uint64(txn)%protoStripes]
}

func (pc *protoCounters) snapshot() ProtocolStats {
	var st ProtocolStats
	for i := range pc {
		c := &pc[i]
		st.Requests += c.requests.Load()
		st.NoFollow += c.noFollow.Load()
		st.MemoHits += c.memoHits.Load()
		st.UpwardLocks += c.upwardLocks.Load()
		st.EntryPointScans += c.entryScans.Load()
		st.LateEntryPoints += c.lateEntries.Load()
		st.DownwardPropagations += c.downward.Load()
		st.Rule4PrimeWeakened += c.rule4Weakened.Load()
		st.NodeLocks += c.nodeLocks.Load()
		st.FastPathHits += c.fastPathHits.Load()
		st.BatchedLocks += c.batchedLocks.Load()
	}
	return st
}

// Stats returns a snapshot of the protocol's rule counters.
func (p *Protocol) Stats() ProtocolStats { return p.counters.snapshot() }

// Counters returns every rule counter with its metric name, in field order.
func (s ProtocolStats) Counters() []lock.Counter {
	return []lock.Counter{
		{Name: "requests", Value: s.Requests},
		{Name: "no_follow", Value: s.NoFollow},
		{Name: "memo_hits", Value: s.MemoHits},
		{Name: "upward_locks", Value: s.UpwardLocks},
		{Name: "entry_point_scans", Value: s.EntryPointScans},
		{Name: "late_entry_points", Value: s.LateEntryPoints},
		{Name: "downward_propagations", Value: s.DownwardPropagations},
		{Name: "rule4prime_weakened", Value: s.Rule4PrimeWeakened},
		{Name: "node_locks", Value: s.NodeLocks},
		{Name: "fast_path_hits", Value: s.FastPathHits},
		{Name: "batched_locks", Value: s.BatchedLocks},
	}
}

// WriteMetrics writes the rule counters in Prometheus text format; the
// engine's /metrics (engine.Engine.Handler) writes them after the manager's.
func (p *Protocol) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP colock_protocol_ops_total Protocol rule applications (rules 1-5, 4').\n")
	fmt.Fprintf(w, "# TYPE colock_protocol_ops_total counter\n")
	for _, c := range p.Stats().Counters() {
		fmt.Fprintf(w, "colock_protocol_ops_total{op=%q} %d\n", c.Name, c.Value)
	}
}

// UnitKindLabels is the lockable-unit-kind dimension UnitKindOf classifies
// into, for use as obs.Options.KindLabels.
var UnitKindLabels = []string{"database", "segment", "relation", "entry-point", "BLU", "HoLU", "HeLU", "other"}

// UnitKindOf returns an obs classifier that maps lock resource names back
// to the paper's lockable-unit kinds via the namer's schema walk: the first
// three path levels are the database, segment and relation, a
// complex-object root is an entry point, and deeper nodes classify as
// BLU/HoLU/HeLU by the §4.3 derivation rules. Use with obs.Options:
//
//	obs.Options{KindLabels: core.UnitKindLabels, KindOf: core.UnitKindOf(nm)}
//
// The collector asks it once per resource id and the trace recorder once per
// span, so it allocates nothing: the level comes from the slash count, and a
// deep node's kind from the namer's name cache, which memoised its
// classification when the protocol named the resource. Only a resource the
// namer never produced pays the schema walk.
func UnitKindOf(nm *Namer) func(lock.Resource) int {
	return func(r lock.Resource) int {
		if depth := strings.Count(string(r), "/"); depth <= 3 {
			return depth // database, segment, relation, complex-object root
		}
		if strings.HasSuffix(string(r), "/"+bluLabel) {
			return 4 // coalesced per-level BLU (footnote 3)
		}
		info, err := nm.classifyResource(r)
		if err != nil {
			return len(UnitKindLabels) - 1
		}
		switch info.Kind {
		case BLU:
			return 4
		case HoLU:
			return 5
		case HeLU:
			return 6
		}
		return len(UnitKindLabels) - 1
	}
}
