package experiments

import (
	"fmt"
	"sync"
	"time"

	"colock/internal/baseline"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/store"
	"colock/internal/workload"
)

// E1Fig7Concurrency reproduces Figure 7's headline: Q2 (X robot r1) and Q3
// (X robot r2) touch the shared effector e2 but run concurrently under rule
// 4′, while plain rule 4 serializes them. The table reports waits and wall
// time for `pairs` repetitions of the two-transaction schedule.
func E1Fig7Concurrency(pairs int) *metrics.Table {
	t := metrics.NewTable("E1: Figure 7 — Q2 ∥ Q3 on shared effector e2",
		"variant", "pairs", "waits", "elapsed")
	for _, variant := range []struct {
		name  string
		prime bool
	}{
		{"rule 4' (authorization)", true},
		{"rule 4 (plain)", false},
	} {
		e := newEnv(store.PaperDatabase(), variant.prime)
		start := time.Now()
		for i := 0; i < pairs; i++ {
			id2 := lock.TxnID(2*i + 1)
			id3 := lock.TxnID(2*i + 2)
			if variant.prime {
				e.auth.Grant(id2, "cells")
				e.auth.Grant(id3, "cells")
			}
			var wg sync.WaitGroup
			for _, q := range []struct {
				id    lock.TxnID
				robot string
			}{{id2, "r1"}, {id3, "r2"}} {
				wg.Add(1)
				go func(id lock.TxnID, robot string) {
					defer wg.Done()
					p := store.P("cells", "c1", "robots", robot)
					for {
						if err := e.proto.LockPath(id, p, lock.X); err == nil {
							break
						}
						e.proto.Release(id) // deadlock victim: retry
					}
					time.Sleep(200 * time.Microsecond) // transaction work
					e.proto.Release(id)
				}(q.id, q.robot)
			}
			wg.Wait()
		}
		el := time.Since(start)
		st := e.mgr.Stats()
		t.Addf(variant.name, pairs, st.Waits, el)
	}
	return t
}

// E2Granularity quantifies the granule-oriented problem (§3.2.1): readers of
// a cell's c_objects and updaters of single robots touch disjoint parts.
// Appropriate granules (colock) let them run concurrently with few locks;
// whole-object locking serializes them; tuple-level locking is concurrent
// but pays one lock per tuple.
func E2Granularity(cells, objectsPerCell int, hold time.Duration) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E2: lock granularity — %d cells × %d c_objects, reader ∥ updater per cell", cells, objectsPerCell),
		"technique", "elapsed", "waits", "lock-requests", "max-table")
	// The granule-oriented problem is orthogonal to sharing: a disjoint-only
	// database isolates it (shared-data effects are E3-E5's subject).
	cfg := workload.Config{
		Seed: 2, Cells: cells, CObjectsPerCell: objectsPerCell,
		RobotsPerCell: 4, Effectors: 8, DisjointOnly: true,
	}
	// Per cell: one reader of the whole c_objects collection (Q1-shaped)
	// and one updater of robot r0 (Q2-shaped) — logically disjoint.
	var scripts [][]workload.Op
	for c := 0; c < cells; c++ {
		cell := fmt.Sprintf("c%d", c)
		scripts = append(scripts,
			[]workload.Op{{Path: store.P("cells", cell, "c_objects")}},
			[]workload.Op{{Write: true, Path: store.P("cells", cell, "robots", "r0")}},
		)
	}
	for _, name := range []string{"colock", "xsql-whole-object", "systemr-tuple"} {
		st := workload.Generate(cfg)
		l := lockerStack(name, st)
		el, _ := runScripts(l, scripts, hold)
		ms := l.Manager().Stats()
		t.Addf(name, el, ms.Waits, ms.Requests, ms.MaxTableSize)
	}
	return t
}

// E3SharedXLock measures the protocol-oriented overhead claim (§3.2.2,
// §4.6 advantage 2): X-locking one shared effector under the traditional
// DAG needs a reverse scan over the database plus a lock chain per
// referencing robot; the paper's protocol only walks the superunit spine.
// Sharing degree grows with the number of cells.
func E3SharedXLock(cellCounts []int) *metrics.Table {
	t := metrics.NewTable("E3: X-lock one shared effector — cost vs sharing degree",
		"cells", "technique", "sharing", "lock-requests", "nodes-scanned", "elapsed")
	for _, cells := range cellCounts {
		cfg := workload.Config{
			Seed: 3, Cells: cells, CObjectsPerCell: 4,
			RobotsPerCell: 4, EffectorsPerRobot: 2, Effectors: 4,
		}
		for _, name := range []string{"colock", "traditional-dag"} {
			st := workload.Generate(cfg)
			sharing := len(st.BackRefs("effectors", "e0"))
			st.ResetScanCount()
			l := lockerStack(name, st)
			base := l.Manager().Stats()
			start := time.Now()
			if err := l.LockWrite(1, store.P("effectors", "e0")); err != nil {
				panic(err)
			}
			el := time.Since(start)
			d := l.Manager().Stats().Sub(base)
			t.Addf(cells, name, sharing, d.Requests, st.ScanCount(), el)
			l.ReleaseAll(1)
		}
	}
	return t
}

// E4FromTheSide demonstrates §4.6 advantage 3: under the paper's protocol,
// from-the-side access to common data is synchronized — concurrent
// increments of a shared effector's payload via different robots never lose
// updates. The naive DAG (implicit locks along one access path) loses them.
func E4FromTheSide(rounds int) *metrics.Table {
	t := metrics.NewTable("E4: from-the-side access to shared effector e2",
		"technique", "increments", "final-value", "lost-updates")

	inc := func(st *store.Store, v store.Value) store.Value {
		var n int
		fmt.Sscanf(string(v.(store.Str)), "%d", &n)
		time.Sleep(500 * time.Microsecond) // widen the race window
		return store.Str(fmt.Sprintf("%d", n+1))
	}
	counterPath := store.P("effectors", "e2", "tool")

	// Paper protocol (plain rule 4: updating via the robot X-locks e2).
	{
		st := store.PaperDatabase()
		if _, err := st.SetAtomic(counterPath, store.Str("0")); err != nil {
			panic(err)
		}
		e := newEnv(st, false)
		var wg sync.WaitGroup
		for i := 0; i < rounds; i++ {
			for j, robot := range []string{"r1", "r2"} {
				wg.Add(1)
				go func(id lock.TxnID, robot string) {
					defer wg.Done()
					for {
						err := e.proto.LockPath(id, store.P("cells", "c1", "robots", robot), lock.X)
						if err == nil {
							break
						}
						e.proto.Release(id)
					}
					v, err := st.Lookup(counterPath)
					if err != nil {
						panic(err)
					}
					if _, err := st.SetAtomic(counterPath, inc(st, v)); err != nil {
						panic(err)
					}
					e.proto.Release(id)
				}(lock.TxnID(2*i+j+1), robot)
			}
		}
		wg.Wait()
		v, _ := st.Lookup(counterPath)
		var final int
		fmt.Sscanf(string(v.(store.Str)), "%d", &final)
		t.Addf("colock", 2*rounds, final, 2*rounds-final)
	}

	// Naive DAG: both paths grant "exclusive" access concurrently.
	{
		st := store.PaperDatabase()
		if _, err := st.SetAtomic(counterPath, store.Str("0")); err != nil {
			panic(err)
		}
		nm := core.NewNamer(st.Catalog(), false)
		naive := baseline.NewNaiveDAG(core.NewProtocol(lock.NewManager(lock.Options{}), st, nm, core.Options{}), st)
		var wg sync.WaitGroup
		for i := 0; i < rounds; i++ {
			for j, robot := range []string{"r1", "r2"} {
				wg.Add(1)
				go func(id lock.TxnID, robot string) {
					defer wg.Done()
					ref := store.P("cells", "c1", "robots", robot, "effectors", "e2")
					if err := naive.LockThrough(id, ref, lock.X); err != nil {
						panic(err)
					}
					v, err := st.Lookup(counterPath)
					if err != nil {
						panic(err)
					}
					if _, err := st.SetAtomic(counterPath, inc(st, v)); err != nil {
						panic(err)
					}
					naive.ReleaseAll(id)
				}(lock.TxnID(2*i+j+1), robot)
			}
		}
		wg.Wait()
		v, _ := st.Lookup(counterPath)
		var final int
		fmt.Sscanf(string(v.(store.Str)), "%d", &final)
		t.Addf("naive-dag-unsafe", 2*rounds, final, 2*rounds-final)
	}
	return t
}
