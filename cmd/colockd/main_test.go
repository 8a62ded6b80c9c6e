package main

import (
	"context"
	"net"
	"testing"

	"colock/internal/core"
	"colock/internal/engine"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/store"
)

// seedJournal leaves an earlier daemon run's records in dir and returns how
// many there are.
func seedJournal(t *testing.T, dir string) int {
	t.Helper()
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	e, err := engine.Open(engine.Config{Store: st, IncidentDir: t.TempDir(), JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Txns.Begin()
	if err := tx.LockPath(context.Background(), store.P("cells", "c1"), lock.X); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.ReadAll(dir)
	if err != nil || len(recs) == 0 {
		t.Fatalf("seeding the journal: %d records, %v", len(recs), err)
	}
	return len(recs)
}

// A failed -addr or -obs bind must come back from run as an error with the
// journal closed: the old log.Fatal skipped the deferred Close and left a
// header-less segment that reads back as a torn journal.
func TestStartupFailureClosesJournal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	occupied := ln.Addr().String()
	for name, bind := range map[string][]string{
		"addr": {"-addr", occupied},
		"obs":  {"-addr", "127.0.0.1:0", "-obs", occupied},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seeded := seedJournal(t, dir)
			args := append([]string{"-journal", dir, "-incidents", t.TempDir()}, bind...)
			if err := run(args, nil); err == nil {
				t.Fatal("run bound an occupied port")
			}
			recs, torn, err := journal.ReadAll(dir)
			if err != nil || torn {
				t.Errorf("journal after the failed start: torn=%v err=%v", torn, err)
			}
			if len(recs) != seeded {
				t.Errorf("read back %d records, %d were written before the failure", len(recs), seeded)
			}
		})
	}
}
