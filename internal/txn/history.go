package txn

import (
	"fmt"
	"sort"
	"sync"

	"colock/internal/lock"
	"colock/internal/store"
)

// History records the read/write accesses and commit order of committed
// transactions so that conflict serializability can be verified after a
// run — an end-to-end oracle for the protocol + strict-2PL stack (degree 3
// consistency, GLPT76). Recording is off unless a History is attached to
// the Manager with EnableHistory.

// AccessKind distinguishes reads from writes in the history.
type AccessKind uint8

const (
	// AccessR is a read access.
	AccessR AccessKind = iota
	// AccessW is a write access.
	AccessW
)

// String returns "r" or "w".
func (k AccessKind) String() string {
	if k == AccessW {
		return "w"
	}
	return "r"
}

// Access is one recorded data access.
type Access struct {
	Seq  uint64 // global order of the access
	Txn  lock.TxnID
	Kind AccessKind
	// Path is the accessed node; hierarchical conflict semantics apply
	// (an access to a node touches its whole subtree).
	Path string
}

// History collects accesses and commit events.
type History struct {
	mu       sync.Mutex
	seq      uint64
	accesses []Access
	commits  map[lock.TxnID]uint64 // txn → commit seq
}

// NewHistory returns an empty history recorder.
func NewHistory() *History {
	return &History{commits: make(map[lock.TxnID]uint64)}
}

func (h *History) record(txn lock.TxnID, kind AccessKind, p store.Path) {
	h.mu.Lock()
	h.seq++
	h.accesses = append(h.accesses, Access{Seq: h.seq, Txn: txn, Kind: kind, Path: p.String()})
	h.mu.Unlock()
}

func (h *History) commit(txn lock.TxnID) {
	h.mu.Lock()
	h.seq++
	h.commits[txn] = h.seq
	h.mu.Unlock()
}

func (h *History) abort(txn lock.TxnID) {
	// Aborted transactions' accesses are dropped: their effects were undone
	// and must not constrain serializability.
	h.mu.Lock()
	kept := h.accesses[:0]
	for _, a := range h.accesses {
		if a.Txn != txn {
			kept = append(kept, a)
		}
	}
	h.accesses = kept
	h.mu.Unlock()
}

// Accesses returns a copy of the recorded committed-transaction accesses in
// global order.
func (h *History) Accesses() []Access {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Access, len(h.accesses))
	copy(out, h.accesses)
	return out
}

// CommittedCount returns the number of committed transactions recorded.
func (h *History) CommittedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.commits)
}

// pathsConflict: hierarchical data — an access to a node touches its whole
// subtree, so two paths conflict when one is a prefix of the other (or they
// are equal).
func pathsConflict(a, b string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == len(b) {
		return a == b
	}
	return b[:len(a)] == a && b[len(a)] == '/'
}

// CheckConflictSerializable builds the precedence graph of the committed
// transactions (edge Ti→Tj when an access of Ti precedes a conflicting
// access of Tj, at least one of them a write) and verifies it is acyclic.
// It returns the offending cycle as an error, or nil.
func (h *History) CheckConflictSerializable() error {
	h.mu.Lock()
	accesses := make([]Access, 0, len(h.accesses))
	for _, a := range h.accesses {
		if _, committed := h.commits[a.Txn]; committed {
			accesses = append(accesses, a)
		}
	}
	h.mu.Unlock()
	sort.Slice(accesses, func(i, j int) bool { return accesses[i].Seq < accesses[j].Seq })

	edges := make(map[lock.TxnID]map[lock.TxnID]bool)
	addEdge := func(from, to lock.TxnID) {
		if from == to {
			return
		}
		if edges[from] == nil {
			edges[from] = make(map[lock.TxnID]bool)
		}
		edges[from][to] = true
	}
	for i := 0; i < len(accesses); i++ {
		for j := i + 1; j < len(accesses); j++ {
			a, b := accesses[i], accesses[j]
			if a.Txn == b.Txn {
				continue
			}
			if a.Kind == AccessR && b.Kind == AccessR {
				continue
			}
			if pathsConflict(a.Path, b.Path) {
				addEdge(a.Txn, b.Txn)
			}
		}
	}

	// Cycle detection (iterative-friendly sizes; recursion is fine here).
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[lock.TxnID]int)
	var path []lock.TxnID
	var cycle []lock.TxnID
	var dfs func(t lock.TxnID) bool
	dfs = func(t lock.TxnID) bool {
		color[t] = grey
		path = append(path, t)
		for next := range edges[t] {
			switch color[next] {
			case grey:
				for i := len(path) - 1; i >= 0; i-- {
					cycle = append(cycle, path[i])
					if path[i] == next {
						return true
					}
				}
				return true
			case white:
				if dfs(next) {
					return true
				}
			}
		}
		color[t] = black
		path = path[:len(path)-1]
		return false
	}
	nodes := make([]lock.TxnID, 0, len(edges))
	for t := range edges {
		nodes = append(nodes, t)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, t := range nodes {
		if color[t] == white && dfs(t) {
			return fmt.Errorf("txn: history not conflict-serializable: cycle %v", cycle)
		}
	}
	return nil
}

// EnableHistory attaches a history recorder to the manager; all subsequent
// transaction reads, writes, commits and aborts are recorded.
func (m *Manager) EnableHistory(h *History) { m.history.Store(h) }

func (m *Manager) recordAccess(txn lock.TxnID, kind AccessKind, p store.Path) {
	if h := m.history.Load(); h != nil {
		h.record(txn, kind, p)
	}
}

func (m *Manager) recordEnd(txn lock.TxnID, committed bool) {
	h := m.history.Load()
	if h == nil {
		return
	}
	if committed {
		h.commit(txn)
	} else {
		h.abort(txn)
	}
}
