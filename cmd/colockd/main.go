// Command colockd serves the paper's lock protocol over TCP: it wires a
// fully observable lock manager (collector, tracer, contention profile,
// incident writer, health monitor, optional durable journal) around the
// paper's example database and exposes it through internal/server's wire
// protocol (DESIGN.md §16). Remote clients dial with the client package,
// begin leased sessions, and run transactions with the exact semantics —
// rules 1-5, de-escalation, deadlock policies, admission control — an
// in-process caller gets.
//
//	$ colockd -addr 127.0.0.1:8029 -deadlock detect -obs 127.0.0.1:8023
//	colockd: serving lock protocol on 127.0.0.1:8029 (lease 5s)
//
// SIGINT/SIGTERM drains gracefully: new sessions and transactions are
// refused (retryably, so client retry loops fail over), in-flight
// transactions get -drain-timeout to finish, then remaining sessions are
// cut and their transactions aborted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"colock/internal/core"
	"colock/internal/engine"
	"colock/internal/lock"
	"colock/internal/server"
	"colock/internal/store"
)

func parseAdmitMode(name string) (lock.AdmissionMode, error) {
	switch name {
	case "shed":
		return lock.AdmitShed, nil
	case "degrade":
		return lock.AdmitDegrade, nil
	}
	return lock.AdmitShed, fmt.Errorf("unknown admission mode %q (shed, degrade)", name)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("colockd: ")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon from flag parsing to drained shutdown. Every start-up
// failure comes back as an error AFTER the deferred engine Close has flushed
// and closed the journal; main exits on it (os.Exit runs no defers, so
// nothing in here may call log.Fatal once the engine is open).
func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("colockd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8029", "address to serve the wire protocol on")
	deadlock := fs.String("deadlock", "detect", "deadlock policy: detect, waitdie or none")
	obsAddr := fs.String("obs", "", "serve the observability HTTP endpoint on this address (e.g. 127.0.0.1:8023)")
	incidents := fs.String("incidents", filepath.Join(os.TempDir(), "colockd-incidents"),
		"directory for deadlock/timeout incident dumps (JSONL)")
	journalDir := fs.String("journal", "",
		"directory for the durable lock-event journal (analyze offline with colockreplay)")
	lease := fs.Duration("lease", 5*time.Second,
		"session lease: a client missing this keepalive deadline has its transactions aborted")
	maxSessions := fs.Int("max-sessions", 0, "cap on concurrent sessions (0 = unlimited)")
	maxInflight := fs.Int("max-inflight", 64, "cap on concurrently executing requests per session")
	maxWaiters := fs.Int("max-waiters", 0,
		"admission gate: engage when this many transactions are parked in wait queues (0 = off)")
	admitDelay := fs.Duration("admit-delay", 50*time.Millisecond,
		"how long a new transaction may stall waiting for the storm to drain before being shed")
	admitMode := fs.String("admit-mode", "shed", "saturated-gate behavior: shed or degrade")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second,
		"how long graceful shutdown waits for in-flight transactions")
	pprofOn := fs.Bool("pprof", false,
		"expose net/http/pprof under /debug/pprof/ on the -obs endpoint")
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	policy, err := lock.ParsePolicy(*deadlock)
	if err != nil {
		return err
	}
	mode, err := parseAdmitMode(*admitMode)
	if err != nil {
		return err
	}
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	eng, err := engine.Open(engine.Config{
		Store:       st,
		Policy:      policy,
		IncidentDir: *incidents,
		JournalDir:  *journalDir,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := eng.Close(); err != nil {
			log.Printf("journal close: %v", err)
		}
	}()

	// The waiter-depth gate sheds or degrades network transactions exactly
	// like local ones; a zero -max-waiters installs none.
	eng.Manager.ConfigureAdmission(lock.AdmissionConfig{
		MaxWaiters: *maxWaiters,
		MaxDelay:   *admitDelay,
		Mode:       mode,
	})
	srv := server.New(eng.Txns, server.Options{
		Lease:       *lease,
		MaxSessions: *maxSessions,
		MaxInflight: *maxInflight,
		Logf:        log.Printf,
	})
	if err := srv.Serve(*addr); err != nil {
		return err
	}
	defer srv.Close() // no-op after Drain; cuts the listener when -obs fails to bind

	if *obsAddr != "" {
		osrv, err := eng.ServeObs(*obsAddr, *pprofOn, srv.WriteMetrics)
		if err != nil {
			return err
		}
		defer osrv.Close()
		log.Printf("observability endpoint on http://%s/ (/metrics, /queues, /dot, /health, /trace/...)", osrv.Addr())
	}
	log.Printf("incident dumps in %s", *incidents)
	if eng.Journal != nil {
		log.Printf("journaling lock events to %s (colockreplay -dir %s)", *journalDir, *journalDir)
	}
	log.Printf("serving lock protocol on %s (lease %s, deadlock %s)", srv.Addr(), *lease, *deadlock)

	<-stop
	log.Printf("draining: refusing new sessions, waiting up to %s for in-flight transactions", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain timed out: remaining sessions cut, their transactions aborted (%v)", err)
	} else {
		log.Printf("drained cleanly")
	}
	return nil
}
