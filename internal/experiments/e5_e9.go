package experiments

import (
	"fmt"
	"sync"
	"time"

	"colock/internal/authz"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/store"
	"colock/internal/workload"
)

// E5Authorization quantifies §4.6 advantage 4: many updaters, each X-locking
// its own robot, all referencing a small shared effectors library none of
// them may modify. Under rule 4′ the library entry points are S-locked and
// the updaters run concurrently; under rule 4 the X-propagation onto the
// library serializes them.
func E5Authorization(updaters []int, hold time.Duration) *metrics.Table {
	t := metrics.NewTable("E5: authorization cooperation (rule 4 vs 4') — updaters on robots sharing a read-only library",
		"updaters", "variant", "waits", "deadlock-retries", "elapsed")
	for _, n := range updaters {
		cfg := workload.Config{
			Seed: 5, Cells: n, CObjectsPerCell: 2,
			RobotsPerCell: 1, EffectorsPerRobot: 2, Effectors: 4,
		}
		for _, variant := range []struct {
			name  string
			prime bool
		}{{"rule 4'", true}, {"rule 4", false}} {
			st := workload.Generate(cfg)
			e := newEnv(st, variant.prime)
			var wg sync.WaitGroup
			var retries uint64
			var mu sync.Mutex
			start := time.Now()
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id lock.TxnID, cell string) {
					defer wg.Done()
					if variant.prime {
						e.auth.Grant(id, "cells")
					}
					p := store.P("cells", cell, "robots", "r0")
					for {
						if err := e.proto.LockPath(id, p, lock.X); err == nil {
							break
						}
						e.proto.Release(id)
						mu.Lock()
						retries++
						mu.Unlock()
					}
					time.Sleep(hold)
					e.proto.Release(id)
				}(lock.TxnID(i+1), fmt.Sprintf("c%d", i))
			}
			wg.Wait()
			el := time.Since(start)
			t.Addf(n, variant.name, e.mgr.Stats().Waits, retries, el)
		}
	}
	return t
}

// E6Escalation evaluates the anticipation of lock escalations (§4.5): a
// query reads a fraction of a cell's c_objects. With anticipation the plan
// escalates to one collection lock when the fraction is high; without it,
// execution takes one lock per element and would have to escalate at run
// time once past the escalation threshold.
func E6Escalation(objectsPerCell int, fractions []float64) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E6: anticipated escalation — reading a fraction of %d c_objects", objectsPerCell),
		"fraction", "planner", "plan-granule", "lock-requests", "runtime-escalations")
	const escalationThreshold = 64 // locks per collection before a run-time escalation fires
	cfg := workload.Config{Seed: 6, Cells: 1, CObjectsPerCell: objectsPerCell, RobotsPerCell: 1, EffectorsPerRobot: 1, Effectors: 2}

	for _, frac := range fractions {
		touched := int(frac * float64(objectsPerCell))
		if touched < 1 {
			touched = 1
		}
		for _, planner := range []struct {
			name string
			opts core.PlannerOptions
		}{
			{"anticipating", core.PlannerOptions{Theta: 0.4, MaxLocks: escalationThreshold}},
			{"naive", core.PlannerOptions{Theta: 1.01, MaxLocks: 1 << 30}},
		} {
			st := workload.Generate(cfg)
			core.CollectStatistics(st)
			spec := core.QuerySpec{
				Relation:    "cells",
				ObjectBound: true,
				Hops:        []core.Hop{{Attrs: []string{"c_objects"}, Selectivity: frac}},
				Access:      core.AccessRead,
			}
			plan, err := core.PlanQuery(st.Catalog(), spec, planner.opts)
			if err != nil {
				panic(err)
			}
			e := newEnv(st, false)
			base := e.mgr.Stats()
			runtimeEscalations := 0
			switch spec.LevelName(plan.Level) {
			case "collection c_objects", "object", "relation cells":
				if err := e.proto.LockPath(1, store.P("cells", "c0", "c_objects"), lock.S); err != nil {
					panic(err)
				}
			default: // element level: one lock per touched element
				for i := 0; i < touched; i++ {
					p := store.P("cells", "c0", "c_objects", fmt.Sprintf("o%d", i))
					if err := e.proto.LockPath(1, p, lock.S); err != nil {
						panic(err)
					}
					if i+1 == escalationThreshold {
						// A real system would now trade the element locks
						// for a collection lock at run time.
						runtimeEscalations++
					}
				}
			}
			d := e.mgr.Stats().Sub(base)
			t.Addf(fmt.Sprintf("%.0f%%", frac*100), planner.name,
				spec.LevelName(plan.Level), d.Requests, runtimeEscalations)
			e.proto.Release(1)
		}
	}
	return t
}

// E7LongTransactions reproduces the long-transaction argument (§1, §3.2.1):
// a workstation checks out one cell FOR UPDATE and holds it (a long lock);
// short readers meanwhile read the shared effectors library. Under
// whole-object check-out the library is X-locked for the whole check-out;
// under the paper's protocol with rule 4′ the library is only S-locked and
// the readers proceed.
func E7LongTransactions(readers int, checkoutHold time.Duration) *metrics.Table {
	t := metrics.NewTable("E7: long check-out vs short library readers",
		"technique", "readers", "checkout-hold", "total-reader-wait", "blocked-readers")
	cfg := workload.Config{
		Seed: 7, Cells: 4, CObjectsPerCell: 4,
		RobotsPerCell: 2, EffectorsPerRobot: 2, Effectors: 4,
	}
	for _, tech := range []string{"colock", "xsql-whole-object"} {
		st := workload.Generate(cfg)
		var l lockerFunc
		switch tech {
		case "colock":
			e := newEnv(st, true)
			e.auth.Grant(1, "cells") // the check-out txn may modify cells only
			l = lockerFunc{
				write:   func(id lock.TxnID, p store.Path) error { return e.proto.LockPath(id, p, lock.X) },
				read:    func(id lock.TxnID, p store.Path) error { return e.proto.LockPath(id, p, lock.S) },
				release: e.proto.Release,
			}
		default:
			b := lockerStack(tech, st)
			l = lockerFunc{write: b.LockWrite, read: b.LockRead, release: b.ReleaseAll}
		}

		// Long transaction: check out cell c0 entirely.
		if err := l.write(1, store.P("cells", "c0")); err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var totalWait time.Duration
		blocked := 0
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(id lock.TxnID, eff string) {
				defer wg.Done()
				start := time.Now()
				if err := l.read(id, store.P("effectors", eff)); err != nil {
					panic(err)
				}
				w := time.Since(start)
				l.release(id)
				mu.Lock()
				totalWait += w
				if w > checkoutHold/2 {
					blocked++
				}
				mu.Unlock()
			}(lock.TxnID(r+2), fmt.Sprintf("e%d", r%4))
		}
		time.Sleep(checkoutHold)
		l.release(1) // check-in
		wg.Wait()
		t.Addf(tech, readers, checkoutHold, totalWait.Round(time.Millisecond), blocked)
	}
	return t
}

type lockerFunc struct {
	write   func(lock.TxnID, store.Path) error
	read    func(lock.TxnID, store.Path) error
	release func(lock.TxnID)
}

// E8DisjointOverhead measures the paper's admitted disadvantage 2: on purely
// disjoint complex objects the protocol behaves like the traditional one,
// paying only for what it does beyond the chain both lockers share: the
// (fruitless) scan for references during S/X requests, and the node's own
// lock as a manager call of its own after it.
func E8DisjointOverhead(objects, opsPerTxn int) *metrics.Table {
	t := metrics.NewTable("E8: disjoint-only workload — protocol overhead vs traditional hierarchical locking",
		"technique", "txns", "retries", "lock-requests", "elapsed")
	cfg, scripts := e8Workload(objects, opsPerTxn)
	for _, tech := range []string{"colock", "traditional-dag"} {
		st := workload.Generate(cfg)
		l := lockerStack(tech, st)
		el, retries := runScripts(l, scripts, 0)
		ms := l.Manager().Stats()
		t.Addf(tech, len(scripts), retries, ms.Requests, el)
	}
	return t
}

// e8Workload is E8's disjoint-only database and its transaction scripts.
func e8Workload(objects, opsPerTxn int) (workload.Config, [][]workload.Op) {
	cfg := workload.Config{
		Seed: 8, Cells: objects, CObjectsPerCell: 8,
		RobotsPerCell: 4, Effectors: 4, DisjointOnly: true,
	}
	return cfg, workload.Scripts(cfg, workload.MixConfig{
		Seed: 8, Txns: objects, OpsPerTxn: opsPerTxn, WriteFraction: 0.7, SharedFraction: 0,
	})
}

// E9BenefitSweep validates the paper's closing claim (§5): "the deeper
// complex objects are structured and/or the more abundant common data exist
// …, the higher the benefit of the proposed technique promises to be." For
// growing chain depth, one updater X-locks a top-level object while readers
// read the deepest shared level; rule 4′ keeps the readers concurrent,
// whole-object check-out blocks them.
func E9BenefitSweep(depths []int, hold time.Duration) *metrics.Table {
	t := metrics.NewTable("E9: benefit vs structure depth — updater on level0 ∥ readers on deepest level",
		"depth", "technique", "total-reader-wait", "blocked-readers")
	const perLevel = 6
	const readers = 8
	for _, depth := range depths {
		ccfg := workload.ChainConfig{Seed: 9, Depth: depth, PerLevel: perLevel, Fanout: 2}
		bottom := workload.LevelRelation(depth - 1)
		for _, tech := range []string{"colock-rule4'", "xsql-whole-object"} {
			st := workload.GenerateChain(ccfg)
			var l lockerFunc
			if tech == "colock-rule4'" {
				nm := core.NewNamer(st.Catalog(), false)
				auth := authz.NewTable(false)
				auth.Grant(1, workload.LevelRelation(0)) // updater may modify only level0
				proto := core.NewProtocol(lock.NewManager(lock.Options{}), st, nm,
					core.Options{Rule4Prime: true, Authorizer: auth})
				l = lockerFunc{
					write:   func(id lock.TxnID, p store.Path) error { return proto.LockPath(id, p, lock.X) },
					read:    func(id lock.TxnID, p store.Path) error { return proto.LockPath(id, p, lock.S) },
					release: proto.Release,
				}
			} else {
				b := lockerStack("xsql-whole-object", st)
				l = lockerFunc{write: b.LockWrite, read: b.LockRead, release: b.ReleaseAll}
			}
			if err := l.write(1, store.P(workload.LevelRelation(0), "n0_0")); err != nil {
				panic(err)
			}
			var wg sync.WaitGroup
			var mu sync.Mutex
			var totalWait time.Duration
			blocked := 0
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(id lock.TxnID, key string) {
					defer wg.Done()
					start := time.Now()
					if err := l.read(id, store.P(bottom, key)); err != nil {
						panic(err)
					}
					w := time.Since(start)
					l.release(id)
					mu.Lock()
					totalWait += w
					if w > hold/2 {
						blocked++
					}
					mu.Unlock()
				}(lock.TxnID(r+2), fmt.Sprintf("n%d_%d", depth-1, r%perLevel))
			}
			time.Sleep(hold)
			l.release(1)
			wg.Wait()
			t.Addf(depth, tech, totalWait.Round(time.Millisecond), blocked)
		}
	}
	return t
}
