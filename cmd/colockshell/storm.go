package main

// The contention-survival commands: .chaos installs a deterministic fault
// injector on the live lock manager, .storm runs a scripted hot-key
// contention storm through the retry layer and reports how many restarts a
// commit cost. Together they demo the resilience stack end to end: chaos
// faults surface as ordinary *LockError aborts, the Retrier classifies and
// re-runs them, and the attempts-per-commit histogram quantifies the price.

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/resilience"
	"colock/internal/store"
	"colock/internal/txn"
)

// chaosCmd handles `.chaos` / `.chaos off` / `.chaos victim=0.2 timeout=0.1
// delay=0.05 seed=42`.
func (s *shell) chaosCmd(arg string) {
	m := s.eng.Manager
	fields := strings.Fields(arg)
	if len(fields) == 0 {
		if s.chaos == nil {
			fmt.Fprintln(s.out, "chaos injection is off (.chaos victim=0.2 [timeout=0.1] [delay=0.05] [seed=42] to enable)")
			return
		}
		cs := s.chaos.Stats()
		fmt.Fprintf(s.out, "chaos on: %+v; injected so far: victims=%d timeouts=%d delays=%d\n",
			s.chaosCfg, cs.Victims, cs.Timeouts, cs.Delays)
		return
	}
	if fields[0] == "off" {
		m.SetInjector(nil)
		s.chaos = nil
		fmt.Fprintln(s.out, "chaos injection off")
		return
	}
	cfg := resilience.ChaosConfig{Seed: 1, Delay: time.Millisecond}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			fmt.Fprintf(s.out, "bad argument %q (want key=value)\n", f)
			return
		}
		switch k {
		case "victim", "timeout", "delay":
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil || rate < 0 || rate > 1 {
				fmt.Fprintf(s.out, "bad rate %q (want 0..1)\n", v)
				return
			}
			switch k {
			case "victim":
				cfg.VictimRate = rate
			case "timeout":
				cfg.TimeoutRate = rate
			case "delay":
				cfg.DelayRate = rate
			}
		case "seed":
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				fmt.Fprintf(s.out, "bad seed %q\n", v)
				return
			}
			cfg.Seed = seed
		default:
			fmt.Fprintf(s.out, "unknown key %q (victim, timeout, delay, seed)\n", k)
			return
		}
	}
	s.chaos = resilience.NewChaos(cfg)
	s.chaosCfg = cfg
	m.SetInjector(s.chaos)
	fmt.Fprintf(s.out, "chaos on: %+v (every acquire may now be a synthetic victim/timeout/delay)\n", cfg)
}

// storm handles `.storm [workers] [rounds]`: a hot-key write storm on the
// cells/c1/robots/r1/trajectory leaf where every worker transaction runs
// through RunWithRetry with exponential backoff. The leaf keeps the conflict
// point deterministic — X-locking the whole cells/c1 object would propagate
// X to the referenced effectors (rules 3/4) and scatter the conflicts across
// the propagated locks. With `.chaos` active the storm also rides through
// synthetic faults. Results: wall time, goodput, and the retry collector's
// attempts-per-commit summary.
func (s *shell) storm(arg string) {
	if s.tx != nil && s.tx.State() == txn.Active {
		fmt.Fprintln(s.out, "finish the current transaction first (.commit or .abort)")
		return
	}
	workers, rounds := 8, 25
	fields := strings.Fields(arg)
	if len(fields) > 0 {
		if n, err := strconv.Atoi(fields[0]); err == nil && n > 0 {
			workers = n
		} else {
			fmt.Fprintf(s.out, "bad worker count %q\n", fields[0])
			return
		}
	}
	if len(fields) > 1 {
		if n, err := strconv.Atoi(fields[1]); err == nil && n > 0 {
			rounds = n
		} else {
			fmt.Fprintf(s.out, "bad round count %q\n", fields[1])
			return
		}
	}

	// Retries feed this storm's own collector (its attempts-per-commit
	// summary), the shell's cumulative one (/metrics, .metrics) and the
	// health monitor's windowed retry rate.
	rc := obs.NewRetryCollector()
	observer := resilience.Tee(rc, s.retry, s.eng.Monitor)
	hot := store.P("cells", "c1", "robots", "r1", "trajectory")
	m := s.eng.Manager
	fmt.Fprintf(s.out, "-- storm: %d workers × %d rounds, X on %s, retry with capped-exponential backoff\n",
		workers, rounds, hot)

	var wg sync.WaitGroup
	var failures int
	var failMu sync.Mutex
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				err := s.eng.Txns.RunWithRetry(context.Background(), func(tx *txn.Txn) error {
					if s.prime {
						s.auth.Grant(tx.ID(), "cells")
					}
					if err := tx.LockPath(nil, hot, lock.X); err != nil {
						return err
					}
					// Hold the hot lock across a scheduling point so the
					// workers genuinely collide (otherwise each txn is a few
					// microseconds and the storm serializes by accident).
					runtime.Gosched()
					return nil
				},
					txn.WithMaxAttempts(0), // unlimited: converge, whatever chaos does
					txn.WithBackoff(resilience.CappedExponential{
						Base: 200 * time.Microsecond, Cap: 5 * time.Millisecond,
					}),
					txn.WithRetryObserver(observer))
				if err != nil {
					failMu.Lock()
					failures++
					failMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := rc.Attempts()
	fmt.Fprintf(s.out, "-- %d commits, %d failures in %v (%.0f commits/s)\n",
		snap.Commits, failures, elapsed.Round(time.Millisecond),
		float64(snap.Commits)/elapsed.Seconds())
	fmt.Fprintf(s.out, "-- retry summary: %s\n", rc)
	st := m.Stats()
	if st.InjectedFaults > 0 || st.Sheds > 0 {
		fmt.Fprintf(s.out, "-- survival kit: injected-faults=%d sheds=%d admit-delays=%d degraded-acquires=%d\n",
			st.InjectedFaults, st.Sheds, st.AdmitDelays, st.DegradedAcquires)
	}
}
