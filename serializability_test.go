// Serializability oracles: concurrent transfers must conserve the total
// (no lost updates, no dirty reads), and a consistent snapshot under a
// relation-level S lock must always observe the invariant — even while
// transfers are in flight.
package colock_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/resilience"
	"colock/internal/schema"
	"colock/internal/store"
	"colock/internal/txn"
)

func accountsStore(t *testing.T, n int, initial int64) *store.Store {
	t.Helper()
	cat := schema.NewCatalog("bank")
	if err := cat.AddRelation(&schema.Relation{
		Name: "accounts", Segment: "s1", Key: "acc_id",
		Type: schema.Tuple(
			schema.F("acc_id", schema.Str()),
			schema.F("balance", schema.Int()),
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	st := store.New(cat)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("a%d", i)
		if err := st.Insert("accounts", id, store.NewTuple().
			Set("acc_id", store.Str(id)).Set("balance", store.Int(initial))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func sumBalances(t *testing.T, tx *txn.Txn, st *store.Store, n int) int64 {
	t.Helper()
	var sum int64
	for i := 0; i < n; i++ {
		v, err := tx.ReadAt(store.P("accounts", fmt.Sprintf("a%d", i), "balance"))
		if err != nil {
			t.Fatal(err)
		}
		sum += int64(v.(store.Int))
	}
	return sum
}

// TestTransferConservation: random concurrent transfers between accounts
// with periodic consistent audits. The total must be conserved at every
// audit and at the end.
func TestTransferConservation(t *testing.T) {
	const (
		accounts = 8
		initial  = 100
		workers  = 6
		rounds   = 20
	)
	st := accountsStore(t, accounts, initial)
	nm := core.NewNamer(st.Catalog(), false)
	proto := core.NewProtocol(lock.NewManager(lock.Options{}), st, nm, core.Options{})
	mgr := txn.NewManager(proto, st)
	want := int64(accounts * initial)

	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	// Transfer workers.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 131))
			for r := 0; r < rounds; r++ {
				from := rng.Intn(accounts)
				to := rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := int64(rng.Intn(20) + 1)
				err := mgr.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
					// Deterministic lock order avoids most deadlocks; the
					// retry loop soaks up the rest.
					a, b := from, to
					if b < a {
						a, b = b, a
					}
					pa := store.P("accounts", fmt.Sprintf("a%d", a))
					pb := store.P("accounts", fmt.Sprintf("a%d", b))
					if err := tx.LockPath(nil, pa, lock.X); err != nil {
						return err
					}
					if err := tx.LockPath(nil, pb, lock.X); err != nil {
						return err
					}
					move := func(key string, delta int64) error {
						p := store.P("accounts", key, "balance")
						v, err := tx.ReadAt(p)
						if err != nil {
							return err
						}
						return tx.UpdateAtomicAt(p, store.Int(int64(v.(store.Int))+delta))
					}
					if err := move(fmt.Sprintf("a%d", from), -amount); err != nil {
						return err
					}
					return move(fmt.Sprintf("a%d", to), amount)
				}, txn.WithMaxAttempts(100))
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	// Auditor: relation-level S lock gives a consistent snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			err := mgr.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
				if err := tx.LockPath(nil, store.P("accounts"), lock.S); err != nil {
					return err
				}
				if got := sumBalances(t, tx, st, accounts); got != want {
					return fmt.Errorf("audit %d: total = %d, want %d", i, got, want)
				}
				return nil
			}, txn.WithMaxAttempts(100))
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := mgr.Begin()
	if err := final.LockPath(nil, store.P("accounts"), lock.S); err != nil {
		t.Fatal(err)
	}
	if got := sumBalances(t, final, st, accounts); got != want {
		t.Errorf("final total = %d, want %d", got, want)
	}
	final.Abort()
	if proto.Manager().LockCount() != 0 {
		t.Error("locks leaked")
	}
}

// TestTransferConservationUnderSavepoints mixes partial rollbacks into the
// transfers: a transfer is applied, rolled back to a savepoint, then
// re-applied — conservation must still hold.
func TestTransferConservationUnderSavepoints(t *testing.T) {
	const accounts = 4
	st := accountsStore(t, accounts, 50)
	nm := core.NewNamer(st.Catalog(), false)
	proto := core.NewProtocol(lock.NewManager(lock.Options{}), st, nm, core.Options{})
	mgr := txn.NewManager(proto, st)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				from := w % accounts
				to := (w + r + 1) % accounts
				if from == to {
					continue
				}
				err := mgr.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
					a, b := from, to
					if b < a {
						a, b = b, a
					}
					if err := tx.LockPath(nil, store.P("accounts", fmt.Sprintf("a%d", a)), lock.X); err != nil {
						return err
					}
					if err := tx.LockPath(nil, store.P("accounts", fmt.Sprintf("a%d", b)), lock.X); err != nil {
						return err
					}
					transfer := func() error {
						for _, step := range []struct {
							acc   int
							delta int64
						}{{from, -5}, {to, 5}} {
							p := store.P("accounts", fmt.Sprintf("a%d", step.acc), "balance")
							v, err := tx.ReadAt(p)
							if err != nil {
								return err
							}
							if err := tx.UpdateAtomicAt(p, store.Int(int64(v.(store.Int))+step.delta)); err != nil {
								return err
							}
						}
						return nil
					}
					sp := tx.Savepoint()
					if err := transfer(); err != nil {
						return err
					}
					if err := tx.RollbackTo(sp); err != nil {
						return err
					}
					return transfer() // the one that counts
				}, txn.WithMaxAttempts(100))
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := mgr.Begin()
	if err := final.LockPath(nil, store.P("accounts"), lock.S); err != nil {
		t.Fatal(err)
	}
	if got := sumBalances(t, final, st, accounts); got != int64(accounts*50) {
		t.Errorf("total = %d, want %d", got, accounts*50)
	}
	final.Abort()
}

// TestTransferConservationUnderChaos replays the transfer workload with a
// fixed-seed fault injector killing attempts mid-flight: histories now
// contain chaos-aborted prefixes that were retried. Conservation must hold
// at every audit and at the end — a retried attempt's partial work must
// never leak into the committed history — and with unbounded attempts every
// transfer must eventually commit despite the injected victims, timeouts
// and grant delays.
func TestTransferConservationUnderChaos(t *testing.T) {
	const (
		accounts = 6
		initial  = 100
		workers  = 6
		rounds   = 12
	)
	st := accountsStore(t, accounts, initial)
	nm := core.NewNamer(st.Catalog(), false)
	lm := lock.NewManager(lock.Options{Policy: lock.PolicyWaitDie})
	chaos := resilience.NewChaos(resilience.ChaosConfig{
		Seed:        11,
		VictimRate:  0.10,
		TimeoutRate: 0.05,
		DelayRate:   0.05,
		Delay:       100 * time.Microsecond,
	})
	lm.SetInjector(chaos)
	proto := core.NewProtocol(lm, st, nm, core.Options{})
	mgr := txn.NewManager(proto, st)
	want := int64(accounts * initial)

	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	retryOpts := []txn.Option{
		txn.WithMaxAttempts(0),
		txn.WithBackoff(resilience.CappedExponential{
			Base: 20 * time.Microsecond, Cap: time.Millisecond,
		}),
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*977 + 1))
			for r := 0; r < rounds; r++ {
				from := rng.Intn(accounts)
				to := rng.Intn(accounts)
				if from == to {
					continue
				}
				amount := int64(rng.Intn(20) + 1)
				err := mgr.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
					a, b := from, to
					if b < a {
						a, b = b, a
					}
					if err := tx.LockPath(nil, store.P("accounts", fmt.Sprintf("a%d", a)), lock.X); err != nil {
						return err
					}
					if err := tx.LockPath(nil, store.P("accounts", fmt.Sprintf("a%d", b)), lock.X); err != nil {
						return err
					}
					move := func(key string, delta int64) error {
						p := store.P("accounts", key, "balance")
						v, err := tx.ReadAt(p)
						if err != nil {
							return err
						}
						return tx.UpdateAtomicAt(p, store.Int(int64(v.(store.Int))+delta))
					}
					if err := move(fmt.Sprintf("a%d", from), -amount); err != nil {
						return err
					}
					return move(fmt.Sprintf("a%d", to), amount)
				}, retryOpts...)
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	// Auditor riding through the same chaos.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			err := mgr.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
				if err := tx.LockPath(nil, store.P("accounts"), lock.S); err != nil {
					return err
				}
				if got := sumBalances(t, tx, st, accounts); got != want {
					return fmt.Errorf("chaos audit %d: total = %d, want %d", i, got, want)
				}
				return nil
			}, retryOpts...)
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if cs := chaos.Stats(); cs.Victims+cs.Timeouts == 0 {
		t.Error("chaos injected no faults — the retried histories tested nothing")
	}
	lm.SetInjector(nil) // the final audit is not retried: no faults for it
	final := mgr.Begin()
	if err := final.LockPath(nil, store.P("accounts"), lock.S); err != nil {
		t.Fatal(err)
	}
	if got := sumBalances(t, final, st, accounts); got != want {
		t.Errorf("final total = %d, want %d", got, want)
	}
	final.Abort()
	if proto.Manager().LockCount() != 0 {
		t.Error("locks leaked")
	}
}
