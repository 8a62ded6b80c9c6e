package colock_test

import (
	"sync"
	"testing"
)

// The protocol's rule counters, the txn manager's outcome counters and the
// lock manager's batch counters are striped by transaction id and summed
// when read. Eight goroutines editing disjoint cells of one sink-less engine
// must still leave exact totals: per cell edit 22 manager requests, 16
// grants, 38 fast-path hits and 10 entry-point scans, as on one goroutine.
func TestStripedCountersExact(t *testing.T) {
	const workers, edits = 8, 200
	tm := bareTxnManager(t)
	all := cellEdits()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < edits; i++ {
				// Worker w owns the cells ≡ w (mod workers): no conflicts.
				if err := runCellEdit(tm, &all[(w+i*workers)%len(all)]); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const txns = workers * edits
	ps, ms := tm.Protocol().Stats(), tm.Protocol().Manager().Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"txn.Manager.Commits", tm.Commits(), txns},
		{"txn.Manager.Aborts", tm.Aborts(), 0},
		{"Protocol.Stats().Requests", ps.Requests, 10 * txns},
		{"Protocol.Stats().FastPathHits", ps.FastPathHits, 38 * txns},
		{"Protocol.Stats().EntryPointScans", ps.EntryPointScans, 10 * txns},
		{"Manager.Stats().Requests", ms.Requests, 22 * txns},
		{"Manager.Stats().Grants", ms.Grants, 16 * txns},
		{"Manager.Stats().Releases", ms.Releases, 16 * txns},
		{"Manager.Stats().Conflicts", ms.Conflicts, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (%d per transaction)", c.name, c.got, c.want, c.want/txns)
		}
	}
	if ms.Batches == 0 || ms.BatchFastGrants == 0 {
		t.Errorf("batch counters read %d batches, %d fast grants", ms.Batches, ms.BatchFastGrants)
	}
	if n := tm.ActiveCount(); n != 0 {
		t.Errorf("%d transactions still active", n)
	}
}
