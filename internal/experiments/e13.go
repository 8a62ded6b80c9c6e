package experiments

import (
	"sync"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/store"
	"colock/internal/workload"
)

// E13DeadlockPolicy compares the lock manager's two deadlock strategies
// under a crossing-order hot-spot workload: waits-for detection with
// youngest-victim abort (the default; what System R-era managers did) vs
// wait-die prevention. Detection aborts only on real cycles; wait-die never
// deadlocks but kills young transactions spuriously.
func E13DeadlockPolicy(workers, rounds int) *metrics.Table {
	t := metrics.NewTable("E13: deadlock handling — detection vs wait-die on a crossing hot spot",
		"policy", "txns", "aborts", "waits", "elapsed")
	cfg := workload.Config{Seed: 13, Cells: 2, CObjectsPerCell: 2, RobotsPerCell: 2, Effectors: 2, DisjointOnly: true}
	for _, policy := range []lock.Policy{lock.PolicyDetect, lock.PolicyWaitDie} {
		st := workload.Generate(cfg)
		nm := core.NewNamer(st.Catalog(), false)
		// No deferral window: a cycle is found and a victim chosen as soon
		// as the closing request enqueues, as in the paper-era managers the
		// experiment reports on.
		mgr := lock.NewManager(lock.Options{Policy: policy, DeadlockDefer: -1})
		proto := core.NewProtocol(mgr, st, nm, core.Options{})

		hot := []store.Path{
			store.P("cells", "c0", "robots", "r0"),
			store.P("cells", "c1", "robots", "r0"),
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		aborts := 0
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					id := lock.TxnID(w*rounds + r + 1)
					first, second := hot[0], hot[1]
					if w%2 == 1 {
						first, second = second, first
					}
					for {
						err := func() error {
							if err := proto.LockPath(id, first, lock.X); err != nil {
								return err
							}
							time.Sleep(50 * time.Microsecond)
							return proto.LockPath(id, second, lock.X)
						}()
						proto.Release(id)
						if err == nil {
							break
						}
						mu.Lock()
						aborts++
						mu.Unlock()
						// Back off before retrying; otherwise wait-die's
						// young transactions spin against an older holder.
						time.Sleep(200 * time.Microsecond)
					}
				}
			}(w)
		}
		wg.Wait()
		el := time.Since(start)
		t.Addf(policy.String(), workers*rounds, aborts, mgr.Stats().Waits, el)
	}
	return t
}
