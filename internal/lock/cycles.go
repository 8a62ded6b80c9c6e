package lock

// CycleFinder is the one waits-for cycle walk: an iterative white/grey/black
// depth-first search that the deadlock detector, WaitsForDOT and offline
// journal replay share. Its buffers are reused across walks, so a warm
// finder allocates nothing. The zero value is ready to use; a finder is not
// safe for concurrent use.
type CycleFinder struct {
	color map[TxnID]uint8
	arena []TxnID // concatenated successor lists of the path's frames
	stack []cycleFrame
	cycle []TxnID
}

// cycleFrame is one node on the DFS path; its unexplored successors are
// arena[lo:hi].
type cycleFrame struct {
	txn    TxnID
	lo, hi int
}

const (
	white uint8 = iota // unvisited
	grey               // on the current DFS path
	black              // fully explored
)

// Reset forgets every node's color. Colors persist across walks until then:
// a walk never re-enters a node an earlier walk explored, which is what
// lets one finder cover a whole graph by walking from each node in turn.
func (f *CycleFinder) Reset() { clear(f.color) }

// Walk explores everything reachable from start that no earlier walk since
// Reset explored. out appends t's successors to dst and returns it; it is
// called once per node, when the walk first enters it. found is called for
// every edge that closes a cycle, with the cycle's members deepest first:
// cycle[j+1] waits for cycle[j], and the closing edge runs from cycle[0] to
// cycle[n-1]. The slice is reused once found returns; found returns false to
// end the walk, which leaves the walk's path marked, so Reset before the next.
func (f *CycleFinder) Walk(start TxnID, out func(t TxnID, dst []TxnID) []TxnID, found func(cycle []TxnID) bool) {
	if f.color == nil {
		f.color = make(map[TxnID]uint8, 16)
	}
	if f.color[start] != white {
		return
	}
	f.arena, f.stack = f.arena[:0], f.stack[:0]
	f.push(start, out)
	for len(f.stack) > 0 {
		top := &f.stack[len(f.stack)-1]
		if top.lo == top.hi {
			f.color[top.txn] = black
			f.stack = f.stack[:len(f.stack)-1]
			continue
		}
		next := f.arena[top.lo]
		top.lo++
		switch f.color[next] {
		case grey:
			// A cycle: the path suffix from next to the top.
			f.cycle = f.cycle[:0]
			for i := len(f.stack) - 1; i >= 0; i-- {
				f.cycle = append(f.cycle, f.stack[i].txn)
				if f.stack[i].txn == next {
					break
				}
			}
			if !found(f.cycle) {
				return
			}
		case white:
			f.push(next, out)
		}
	}
}

// push puts t on the DFS path and loads its successors into the arena.
func (f *CycleFinder) push(t TxnID, out func(TxnID, []TxnID) []TxnID) {
	f.color[t] = grey
	lo := len(f.arena)
	f.arena = out(t, f.arena)
	f.stack = append(f.stack, cycleFrame{txn: t, lo: lo, hi: len(f.arena)})
}

// Youngest is the victim rule: the youngest (highest-ID) member of a cycle,
// the transaction whose abort costs the least work.
func Youngest(cycle []TxnID) TxnID {
	v := cycle[0]
	for _, t := range cycle[1:] {
		v = max(v, t)
	}
	return v
}
