package lock

// Live lock-table introspection: per-resource grant/wait queues, per-shard
// occupancy, and the waits-for graph with a Graphviz DOT export for
// deadlock post-mortems. Everything here follows the latch-ordering
// discipline of shard.go rule 3: at most one shard latch at a time, so the
// result is a consistent per-resource (not a globally atomic) picture —
// the same trade the cross-shard deadlock detector makes.

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// GrantInfo describes one granted lock in a queue snapshot.
type GrantInfo struct {
	Txn     TxnID
	Mode    Mode
	Durable bool
	// Seq is the resource's grant sequence number: its entry's grants and
	// conversions numbered from 1 in the order they happened, restarting
	// when the entry is dropped (nothing granted or queued).
	Seq uint64
}

// WaiterInfo describes one queued request in a queue snapshot.
type WaiterInfo struct {
	Txn     TxnID
	Mode    Mode // target mode (post-conversion supremum for conversions)
	Convert bool
	Durable bool
	// Since is the request's start time; zero when the enqueuing operation
	// was not traced (no sink attached at the time).
	Since time.Time
}

// QueueInfo is the snapshot of one resource's lock-table entry.
type QueueInfo struct {
	Resource Resource
	Shard    int
	Granted  []GrantInfo  // grant order (Seq)
	Waiting  []WaiterInfo // queue order (conversions first)
}

// Contended reports whether the resource has at least one queued waiter.
func (q QueueInfo) Contended() bool { return len(q.Waiting) > 0 }

// SnapshotQueues returns the granted set and wait queue of every resource
// with a live lock-table entry, sorted by resource name. It latches one
// shard at a time.
func (m *Manager) SnapshotQueues() []QueueInfo {
	var out []QueueInfo
	for _, s := range m.shards {
		s.mu.Lock()
		for i, e := range s.res {
			if e == nil {
				continue
			}
			q := QueueInfo{Resource: m.Name(s.id(i)), Shard: s.idx}
			e.forEachHolder(func(t TxnID, h *heldLock) bool {
				q.Granted = append(q.Granted, GrantInfo{Txn: t, Mode: h.mode, Durable: h.durable, Seq: h.order})
				return true
			})
			sort.Slice(q.Granted, func(i, j int) bool { return q.Granted[i].Seq < q.Granted[j].Seq })
			for _, w := range e.queue {
				q.Waiting = append(q.Waiting, WaiterInfo{Txn: w.txn, Mode: w.mode, Convert: w.convert, Durable: w.durable, Since: w.enq})
			}
			out = append(out, q)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Resource < out[j].Resource })
	return out
}

// ShardSizes returns the number of live lock-table entries per shard — the
// per-stripe occupancy the exposition endpoint publishes. It latches one
// shard at a time.
func (m *Manager) ShardSizes() []int {
	out := make([]int, len(m.shards))
	for i, s := range m.shards {
		s.mu.Lock()
		out[i] = s.live
		s.mu.Unlock()
	}
	return out
}

// ActiveTxns returns the number of distinct transactions currently holding
// at least one lock.
func (m *Manager) ActiveTxns() int {
	n := 0
	for _, ts := range m.txns {
		ts.mu.Lock()
		n += len(ts.held)
		ts.mu.Unlock()
	}
	return n
}

// WaitingTxns returns the number of transactions with an outstanding
// (blocked) lock request.
func (m *Manager) WaitingTxns() int {
	return m.wf.size()
}

// TxnActive reports whether txn still occupies the lock table — holding at
// least one lock or parked in a wait queue. Restart-wait retry policies
// poll this to hold a restarted transaction back until the transactions
// that killed it have drained.
func (m *Manager) TxnActive(txn TxnID) bool {
	if _, ok := m.wf.get(txn); ok {
		return true
	}
	ts := m.txnShardFor(txn)
	ts.mu.Lock()
	_, ok := ts.held[txn]
	ts.mu.Unlock()
	return ok
}

// WaitEdge is one edge of the waits-for graph: From's outstanding request
// for Mode on Resource is blocked by To.
type WaitEdge struct {
	From, To TxnID
	Resource Resource
	Mode     Mode
}

// WaitsForEdges snapshots the waits-for graph: for every blocked
// transaction, the transactions blocking it (incompatible holders and
// earlier incompatible waiters). Edges are read one shard at a time, so
// under churn the set is accurate edge-by-edge but not globally atomic —
// genuine deadlock cycles are stable and always appear. The result is
// sorted by (From, To).
func (m *Manager) WaitsForEdges() []WaitEdge {
	var out []WaitEdge
	sc := getBlockScratch()
	for _, txn := range m.wf.txns() {
		clear(sc.seen)
		var res ResID
		var mode Mode
		res, mode, sc.out = m.appendWaitsFor(txn, sc.out[:0], sc.seen)
		for _, to := range sc.out {
			out = append(out, WaitEdge{From: txn, To: to, Resource: m.Name(res), Mode: mode})
		}
	}
	putBlockScratch(sc)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// WaitsForDOT exports the current waits-for graph in Graphviz DOT format
// for deadlock post-mortems. Transactions on a detected cycle are marked;
// the victim — the youngest (highest-ID) member of its cycle, i.e. the
// transaction the detector would abort — is highlighted and its outgoing
// cycle edge is labeled "victim edge". Useful with PolicyNone, where
// deadlocks persist instead of being resolved, and for dashboards that
// render the live wait topology.
func (m *Manager) WaitsForDOT() string {
	edges := m.WaitsForEdges()
	return waitsForDOT(edges)
}

// waitsForDOT renders an edge set; split out for deterministic testing.
func waitsForDOT(edges []WaitEdge) string {
	adj := make(map[TxnID][]TxnID)
	nodes := make(map[TxnID]bool)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From], nodes[e.To] = true, true
	}

	ids := make([]TxnID, 0, len(nodes))
	for t := range nodes {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Mark every cycle one walk of the whole graph finds, its victim, and
	// the victim's outgoing cycle edge — the edge whose removal (aborting
	// the victim) breaks the cycle.
	onCycle := make(map[TxnID]bool)
	victims := make(map[TxnID]bool)
	victimEdges := make(map[[2]TxnID]bool)
	var f CycleFinder
	for _, t := range ids {
		f.Walk(t, func(t TxnID, dst []TxnID) []TxnID {
			return append(dst, adj[t]...)
		}, func(cycle []TxnID) bool {
			victim := Youngest(cycle)
			victims[victim] = true
			for k, c := range cycle {
				onCycle[c] = true
				if c == victim { // cycle[k] waits for cycle[k-1], cycle[0] for cycle[n-1]
					victimEdges[[2]TxnID{victim, cycle[(k+len(cycle)-1)%len(cycle)]}] = true
				}
			}
			return true
		})
	}

	var b strings.Builder
	b.WriteString("digraph waitsfor {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=ellipse];\n")
	for _, t := range ids {
		switch {
		case victims[t]:
			fmt.Fprintf(&b, "  t%d [label=\"txn %d (victim)\", color=red, style=bold];\n", t, t)
		case onCycle[t]:
			fmt.Fprintf(&b, "  t%d [label=\"txn %d\", color=red];\n", t, t)
		default:
			fmt.Fprintf(&b, "  t%d [label=\"txn %d\"];\n", t, t)
		}
	}
	for _, e := range edges {
		label := fmt.Sprintf("%s %s", e.Mode, dotEscape(string(e.Resource)))
		if victimEdges[[2]TxnID{e.From, e.To}] {
			fmt.Fprintf(&b, "  t%d -> t%d [label=\"%s (victim edge)\", color=red, style=bold];\n", e.From, e.To, label)
		} else {
			fmt.Fprintf(&b, "  t%d -> t%d [label=\"%s\"];\n", e.From, e.To, label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// dotEscape escapes a string for use inside a double-quoted DOT string.
func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
