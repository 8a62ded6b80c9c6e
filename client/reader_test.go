package client_test

// Tests of who reads the connection: calls pass the reader role among
// themselves under cancellation without losing a reply, and an idle
// session still hears from the server.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"colock/client"
	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/server"
	"colock/internal/store"
	"colock/internal/wire"
)

// TestReaderRoleStress: eight goroutines drive their own transactions over
// one Client, each call under a context that may be canceled at any moment
// — also while the call holds the reader role, parked behind a hot X lock.
// A reply delivered to the wrong call would surface as an unexpected reply
// type, a lost one as a hang, a dropped hand-off as a goroutine left
// behind after Close.
func TestReaderRoleStress(t *testing.T) {
	srv, mgr := startServer(t, lock.PolicyDetect, server.Options{})
	baseline := runtime.NumGoroutine()
	c, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hot := core.DataNode(store.P("cells", "hot"))

	canceled := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, lock.ErrTimeout)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		ids     = map[lock.TxnID]bool{}
		commits int
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			own := core.DataNode(store.P("cells", "g"+strconv.Itoa(g)))
			for i := 0; i < 60; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(2) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(400))*time.Microsecond, cancel)
				}
				tx, err := c.Begin(ctx)
				if err != nil {
					if !canceled(err) {
						t.Errorf("goroutine %d: Begin: %v", g, err)
					}
					cancel()
					continue
				}
				mu.Lock()
				if ids[tx.ID()] {
					t.Errorf("transaction id %d handed out twice", tx.ID())
				}
				ids[tx.ID()] = true
				mu.Unlock()
				err = tx.Lock(ctx, own, lock.X)
				if err == nil {
					err = tx.Lock(ctx, hot, lock.X)
				}
				if err == nil {
					err = tx.Lock(ctx, own, lock.S)
				}
				switch {
				case err == nil:
					if err := tx.Commit(); err != nil {
						t.Errorf("goroutine %d: Commit: %v", g, err)
					}
					mu.Lock()
					commits++
					mu.Unlock()
				case canceled(err):
					tx.Abort()
				default:
					t.Errorf("goroutine %d: Lock: %v", g, err)
					tx.Abort()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if commits == 0 {
		t.Error("no transaction committed: the stress never got past its cancellations")
	}
	if err := c.Err(); err != nil {
		t.Errorf("session broke: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return mgr.LockCount() == 0 }, "lock table to drain")
	c.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.SessionCount() == 0 }, "session teardown")
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline }, "client and session goroutines to exit")
}

// TestIdleSessionObservesServer: with no call in flight — none ever made —
// the client still learns of a lease expiry, and of a server that went
// away, through Err alone.
func TestIdleSessionObservesServer(t *testing.T) {
	srv, _ := startServer(t, lock.PolicyDetect, server.Options{Lease: 60 * time.Millisecond})
	expired := dial(t, srv, client.Options{NoKeepalive: true})
	waitFor(t, 5*time.Second, func() bool { return expired.Err() != nil }, "idle client to observe expiry")
	if err := expired.Err(); !errors.Is(err, wire.ErrSessionExpired) {
		t.Errorf("idle client error = %v, want session-expired", err)
	}

	kept := dial(t, srv, client.Options{})
	time.Sleep(100 * time.Millisecond) // past a lease: only the keepalive's pings flow
	if err := kept.Err(); err != nil {
		t.Fatalf("kept-alive session died: %v", err)
	}
	srv.Close()
	waitFor(t, 5*time.Second, func() bool { return kept.Err() != nil }, "idle client to observe the server closing")
}
