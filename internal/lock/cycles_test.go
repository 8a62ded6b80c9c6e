package lock

import (
	"context"
	"testing"
)

// fuzzGraph decodes bytes into a directed graph on nodes 1..n (n ≤ 10) and a
// start node: data[0] picks n, data[1] the start, and each following byte
// pair one edge. Duplicate edges and self-loops are kept.
func fuzzGraph(data []byte) (n int, start TxnID, adj map[TxnID][]TxnID) {
	if len(data) < 2 {
		return 0, 0, nil
	}
	n = int(data[0])%10 + 1
	start = TxnID(int(data[1])%n + 1)
	adj = make(map[TxnID][]TxnID)
	for i := 2; i+1 < len(data); i += 2 {
		from, to := TxnID(int(data[i])%n+1), TxnID(int(data[i+1])%n+1)
		adj[from] = append(adj[from], to)
	}
	return n, start, adj
}

// edgeSeed encodes a graph for fuzzGraph; nodes are 0-based here.
func edgeSeed(n, start int, edges ...[2]int) []byte {
	b := []byte{byte(n - 1), byte(start)}
	for _, e := range edges {
		b = append(b, byte(e[0]), byte(e[1]))
	}
	return b
}

// FuzzCycleFinder checks the walker against brute-force reachability in all
// three modes its callers use: the detector's first cycle, replay's cycle
// that closes on the start, and WaitsForDOT's marking of the whole graph.
func FuzzCycleFinder(f *testing.F) {
	f.Add(edgeSeed(2, 0, [2]int{0, 1}, [2]int{1, 0}))                             // AB-BA
	f.Add(edgeSeed(3, 1, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}))               // 3-ring
	f.Add(edgeSeed(4, 0, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 3}, [2]int{2, 3})) // diamond
	convoy := [][2]int{{5, 0}}                                                    // the holder waits on the last waiter
	for i := 1; i <= 5; i++ {
		for j := 0; j < i; j++ {
			convoy = append(convoy, [2]int{i, j}) // waiter i queues behind the holder and every earlier waiter
		}
	}
	f.Add(edgeSeed(6, 3, convoy...))

	f.Fuzz(func(t *testing.T, data []byte) {
		n, s, adj := fuzzGraph(data)
		if n == 0 {
			return
		}
		// reach[u][v]: a path of length ≥ 1 from u to v.
		var reach [11][11]bool
		for u, succ := range adj {
			for _, v := range succ {
				reach[u][v] = true
			}
		}
		for k := 1; k <= n; k++ {
			for u := 1; u <= n; u++ {
				for v := 1; v <= n; v++ {
					reach[u][v] = reach[u][v] || reach[u][k] && reach[k][v]
				}
			}
		}
		hasEdge := func(u, v TxnID) bool {
			for _, w := range adj[u] {
				if w == v {
					return true
				}
			}
			return false
		}
		check := func(cycle []TxnID) {
			seen := make(map[TxnID]bool)
			for j, c := range cycle {
				if seen[c] {
					t.Fatalf("cycle %v repeats %d", cycle, c)
				}
				seen[c] = true
				if j+1 < len(cycle) && !hasEdge(cycle[j+1], c) {
					t.Fatalf("cycle %v: no edge %d→%d", cycle, cycle[j+1], c)
				}
			}
			if !hasEdge(cycle[0], cycle[len(cycle)-1]) {
				t.Fatalf("cycle %v: no closing edge %d→%d", cycle, cycle[0], cycle[len(cycle)-1])
			}
		}
		out := func(t TxnID, dst []TxnID) []TxnID { return append(dst, adj[t]...) }

		var fd CycleFinder
		want := reach[s][s]
		for v := 1; v <= n; v++ {
			want = want || reach[s][v] && reach[v][v]
		}
		got := false
		fd.Walk(s, out, func(c []TxnID) bool { check(c); got = true; return false })
		if got != want {
			t.Fatalf("first-cycle walk from %d found=%v, want %v (adj %v)", s, got, want, adj)
		}

		fd.Reset()
		got = false
		fd.Walk(s, out, func(c []TxnID) bool {
			check(c)
			got = c[len(c)-1] == s
			return !got
		})
		if got != reach[s][s] {
			t.Fatalf("walk for a cycle through %d found=%v, want %v (adj %v)", s, got, reach[s][s], adj)
		}

		fd.Reset()
		marked := make(map[TxnID]bool)
		for v := 1; v <= n; v++ {
			fd.Walk(TxnID(v), out, func(c []TxnID) bool {
				check(c)
				for _, m := range c {
					marked[m] = true
				}
				return true
			})
		}
		for v := 1; v <= n; v++ {
			if marked[TxnID(v)] && !reach[v][v] {
				t.Fatalf("node %d marked but on no cycle (adj %v)", v, adj)
			}
			if !reach[v][v] {
				continue
			}
			sccMarked := false // v's strongly connected component is cyclic
			for u := 1; u <= n; u++ {
				sccMarked = sccMarked || marked[TxnID(u)] && (u == v || reach[u][v] && reach[v][u])
			}
			if !sccMarked {
				t.Fatalf("no node of %d's cyclic component marked (adj %v)", v, adj)
			}
		}
	})
}

// TestWarmDeadlockWalkAllocs pins the detector's claim that a warm walk
// allocates nothing: a 4-transaction ring stands under PolicyNone, and the
// walk that finds it and revalidates its edges reads 0 allocs/op.
func TestWarmDeadlockWalkAllocs(t *testing.T) {
	m := NewManager(Options{Policy: PolicyNone})
	rs := []Resource{"r1", "r2", "r3", "r4"}
	for i, r := range rs {
		if err := m.AcquireCtx(context.Background(), TxnID(i+1), r, X); err != nil {
			t.Fatal(err)
		}
	}
	var waits []<-chan error
	for i := range rs {
		waits = append(waits, acquireParked(t, m, TxnID(i+1), rs[(i+1)%len(rs)], X))
	}
	sc := &detScratch{seen: make(map[TxnID]bool)}
	if v, ok := m.findDeadlockVictim(1, sc); !ok || v != 4 {
		t.Fatalf("findDeadlockVictim = %d, %v; want 4, true", v, ok)
	}
	allocs := testing.AllocsPerRun(100, func() { m.findDeadlockVictim(1, sc) })
	if allocs != 0 {
		t.Errorf("warm waits-for walk: %.2f allocs/op, want 0", allocs)
	}
	// Unwind the ring by hand, youngest first.
	for i := len(rs); i >= 1; i-- {
		m.ReleaseAll(TxnID(i))
		if err := <-waits[(i+len(rs)-2)%len(rs)]; err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(4)
}
