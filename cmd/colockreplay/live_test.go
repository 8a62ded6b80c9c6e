package main

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/engine"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/txn"
)

// The hot list replayed from a journal is the live monitor's contention
// table: an X storm through an engine with a journal leaves the same rows,
// Blocks and BlockedNS alike, in both — one table, fed the same events.
func TestHotListMatchesLiveTable(t *testing.T) {
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	dir := t.TempDir()
	e, err := engine.Open(engine.Config{Store: st, Policy: lock.PolicyDetect, IncidentDir: t.TempDir(), JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// One holder takes X on cells/c1 (and, by rule 4, on the effector it
	// references). Three transactions time out behind it, three more queue,
	// and committing the holder grants them in turn.
	ctx := context.Background()
	c1 := store.P("cells", "c1")
	holder := e.Txns.Begin()
	if err := holder.LockPath(ctx, c1, lock.X); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tx := e.Txns.Begin()
		if err := tx.LockPath(ctx, c1, lock.X, txn.WithTimeout(time.Millisecond)); !errors.Is(err, lock.ErrTimeout) {
			t.Fatalf("contended X request: %v, want a timeout", err)
		}
		tx.Abort()
	}
	parked := make(chan struct{}, 3) // one first park per waiter
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := e.Txns.Begin()
			pctx := lock.WithParkNotify(ctx, func() {
				select {
				case parked <- struct{}{}:
				default: // a later sleep of a waiter already counted
				}
			})
			if err := tx.LockPath(pctx, c1, lock.X); err != nil {
				t.Error(err)
				tx.Abort()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}()
		<-parked
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if dropped := e.Journal.Dropped(); dropped != 0 {
		t.Fatalf("journal dropped %d records", dropped)
	}
	recs, torn, err := journal.ReadAll(dir)
	if err != nil || torn {
		t.Fatalf("reading the journal back: torn=%v err=%v", torn, err)
	}

	live := e.Monitor.Profile().Entries()
	hot := analyze("t", recs, false, Config{Top: len(recs)}).Hot
	if len(live) == 0 || len(hot) != len(live) {
		t.Fatalf("replayed %d hot rows, live table has %d (want equal, non-zero):\nreplay %+v\nlive   %+v", len(hot), len(live), hot, live)
	}
	for i, l := range live {
		h := hot[i]
		if h.Resource != string(l.Resource) || h.Mode != l.Mode || h.Blocks != int(l.Blocks) || h.BlockedMs != ms(time.Duration(l.BlockedNS)) {
			t.Errorf("row %d: replay %+v, live %+v", i, h, l)
		}
	}
	if live[0].Blocks == 0 || live[0].BlockedNS == 0 {
		t.Errorf("the storm left no contention on its hottest key: %+v", live[0])
	}
}
