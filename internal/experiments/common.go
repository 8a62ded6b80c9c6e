// Package experiments turns the paper's qualitative evaluation (§4.6) into
// measurements: one experiment per claim (see DESIGN.md §5 for the index).
// Each experiment returns a metrics.Table whose rows reproduce the claim's
// expected shape; cmd/figures -e prints them and bench_test.go wraps them
// as testing.B benchmarks.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"colock/internal/authz"
	"colock/internal/baseline"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/txn"
	"colock/internal/workload"
)

// env bundles a fresh protocol stack over a store.
type env struct {
	st    *store.Store
	nm    *core.Namer
	mgr   *lock.Manager
	proto *core.Protocol
	txns  *txn.Manager
	auth  *authz.Table
}

func newEnv(st *store.Store, rule4Prime bool) *env {
	nm := core.NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	auth := authz.NewTable(false)
	var opts core.Options
	if rule4Prime {
		opts = core.Options{Rule4Prime: true, Authorizer: auth}
	}
	proto := core.NewProtocol(mgr, st, nm, opts)
	return &env{st: st, nm: nm, mgr: mgr, proto: proto, txns: txn.NewManager(proto, st), auth: auth}
}

// lockerStack builds a fresh lock manager and the named locker over st. Every
// locker goes through one protocol with the fast path disabled: the technique
// comparisons reproduce the paper's request-count claims (e.g. E8: identical
// counts on disjoint-only workloads), and the fast path deliberately elides
// covered requests. The baselines lock their chains through it with
// propagation off.
func lockerStack(name string, st *store.Store) baseline.Locker {
	p := core.NewProtocol(lock.NewManager(lock.Options{}), st, core.NewNamer(st.Catalog(), false), core.Options{DisableFastPath: true})
	switch name {
	case "colock":
		return baseline.Core{Proto: p}
	case "xsql-whole-object":
		return baseline.NewWholeObject(p, st)
	case "systemr-tuple":
		return baseline.NewTupleLevel(p, st)
	case "traditional-dag":
		return baseline.NewTraditionalDAG(p, st)
	}
	panic("experiments: unknown locker " + name)
}

// runScripts executes the transaction scripts concurrently under a locker:
// each script locks its ops in order, "works" for hold, then releases.
// Deadlock victims retry with fresh lock sets. Returns wall time and the
// number of retries.
func runScripts(l baseline.Locker, scripts [][]workload.Op, hold time.Duration) (time.Duration, uint64) {
	var wg sync.WaitGroup
	var retriesMu sync.Mutex
	retries := uint64(0)
	start := time.Now()
	for i, script := range scripts {
		wg.Add(1)
		go func(id lock.TxnID, ops []workload.Op) {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				err := lockOps(l, id, ops)
				if err == nil && hold > 0 {
					time.Sleep(hold)
				}
				l.ReleaseAll(id)
				if err == nil {
					return
				}
				retriesMu.Lock()
				retries++
				retriesMu.Unlock()
				if attempt > 100 {
					panic(fmt.Sprintf("experiments: txn %d cannot make progress: %v", id, err))
				}
			}
		}(lock.TxnID(i+1), script)
	}
	wg.Wait()
	return time.Since(start), retries
}

// lockOps locks a script's ops in order under l for txn id.
func lockOps(l baseline.Locker, id lock.TxnID, ops []workload.Op) error {
	for _, op := range ops {
		var err error
		if op.Write {
			err = l.LockWrite(id, op.Path)
		} else {
			err = l.LockRead(id, op.Path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
