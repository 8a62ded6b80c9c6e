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

// lockerStack builds a fresh lock manager and the named baseline over st.
func lockerStack(name string, st *store.Store) baseline.Locker {
	nm := core.NewNamer(st.Catalog(), false)
	mgr := lock.NewManager(lock.Options{})
	switch name {
	case "colock":
		// The technique comparisons reproduce the paper's request-count
		// claims (e.g. E8: identical counts on disjoint-only workloads).
		// The fast path deliberately elides covered requests, so
		// it is disabled here to keep the measured rule shape the paper's.
		return baseline.Core{Proto: core.NewProtocol(mgr, st, nm, core.Options{DisableFastPath: true})}
	case "xsql-whole-object":
		return baseline.NewWholeObject(mgr, st, nm)
	case "systemr-tuple":
		return baseline.NewTupleLevel(mgr, st, nm)
	case "traditional-dag":
		return baseline.NewTraditionalDAG(mgr, st, nm)
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
				err := func() error {
					for _, op := range ops {
						var e error
						if op.Write {
							e = l.LockWrite(id, op.Path)
						} else {
							e = l.LockRead(id, op.Path)
						}
						if e != nil {
							return e
						}
					}
					if hold > 0 {
						time.Sleep(hold)
					}
					return nil
				}()
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
