package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/trace"
	"colock/internal/txn"
)

func open(t *testing.T, journalDir string) *Engine {
	t.Helper()
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	e, err := Open(Config{Store: st, Policy: lock.PolicyDetect, IncidentDir: t.TempDir(), JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// forceTimeout leaves one timeout incident behind: a holder takes X on
// cells/c1 and an older transaction asks for it with a short deadline.
func forceTimeout(t *testing.T, e *Engine) {
	t.Helper()
	ctx := context.Background()
	waiter, holder := e.Txns.Begin(), e.Txns.Begin()
	defer waiter.Abort()
	defer holder.Abort()
	c1 := store.P("cells", "c1")
	if err := holder.LockPath(ctx, c1, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := waiter.LockPath(ctx, c1, lock.X, txn.WithTimeout(20*time.Millisecond)); err == nil {
		t.Fatal("the contended X request was granted; want a timeout")
	}
}

// The one load-bearing position of the assembly: the journal runs before the
// incident writer, so the timeout that triggers a dump is inside the journal
// offset the dump records. And an SLO transition is noted in the journal.
func TestJournalBeforeIncidentWriter(t *testing.T) {
	dir := t.TempDir()
	e := open(t, dir)
	forceTimeout(t, e)

	// The live window now holds one timeout against a handful of grants:
	// closing it breaches DefaultSLO's abort rate and fires ok→warn.
	if st := e.Monitor.Advance(time.Now().Add(2 * e.Monitor.WindowDur())); st.String() != "warn" {
		t.Fatalf("monitor state after the timeout window = %s, want warn", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	infos := e.Incidents.Incidents()
	if len(infos) != 1 || infos[0].Reason != "timeout" {
		t.Fatalf("incidents = %+v, want the one timeout", infos)
	}
	inc, err := trace.ParseIncidentFile(infos[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := journal.ReadAll(dir)
	if err != nil || torn {
		t.Fatalf("reading the journal back: torn=%v err=%v", torn, err)
	}
	var trigger, note *journal.Record
	for i := range recs {
		switch recs[i].Kind {
		case "timeout":
			trigger = &recs[i]
		case "health":
			note = &recs[i]
		}
	}
	if trigger == nil {
		t.Fatal("journal has no timeout record")
	}
	if inc.JournalOffset < trigger.Seq {
		t.Errorf("incident records journal offset %d, its trigger event is record %d: the journal must be attached before the incident writer",
			inc.JournalOffset, trigger.Seq)
	}
	if note == nil || !strings.HasPrefix(string(note.Resource), "ok->warn") {
		t.Errorf("SLO transition not noted in the journal: %+v", note)
	}
}

// Close is idempotent, and after it the journal holds every record the
// writer accepted, with the fast-path hits the protocol counted.
func TestCloseTwiceThenReadBack(t *testing.T) {
	dir := t.TempDir()
	e := open(t, dir)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		tx := e.Txns.Begin()
		for _, r := range []string{"r1", "r2"} {
			if err := tx.LockPath(ctx, store.P("cells", "c1", "robots", r), lock.S); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := e.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	st := e.Journal.Status()
	if st.Dropped != 0 || st.Records != st.Accepted {
		t.Fatalf("journal status after Close: %+v, want every accepted record persisted", st)
	}

	recs, torn, err := journal.ReadAll(dir)
	if err != nil || torn {
		t.Fatalf("reading the journal back: torn=%v err=%v", torn, err)
	}
	if uint64(len(recs)) != st.Accepted {
		t.Errorf("read back %d records, writer accepted %d", len(recs), st.Accepted)
	}
	var hits uint64
	for _, rec := range recs {
		if rec.Kind == "fastpath" {
			hits += rec.Hits
		}
	}
	if want := e.Protocol.Stats().FastPathHits; hits != want || want == 0 {
		t.Errorf("journal fast-path hits = %d, protocol counted %d (want equal, non-zero)", hits, want)
	}
}

// Without a journal directory (colockd without -journal) the fast-path hook
// still feeds the monitor, and Close and ServeObs work on the nil journal.
func TestNoJournalWiresMonitorOnly(t *testing.T) {
	e := open(t, "")
	if e.Journal != nil {
		t.Fatal("journal attached without a JournalDir")
	}
	ctx := context.Background()
	tx := e.Txns.Begin()
	for _, r := range []string{"r1", "r2"} {
		if err := tx.LockPath(ctx, store.P("cells", "c1", "robots", r), lock.S); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := e.Protocol.Stats().FastPathHits
	if got := e.Monitor.Current().Counts[health.RateFastPath]; got != want || want == 0 {
		t.Errorf("monitor counted %d fast-path hits, protocol %d (want equal, non-zero)", got, want)
	}
	forceTimeout(t, e)
	if infos := e.Incidents.Incidents(); len(infos) != 1 || infos[0].JournalOffset != 0 {
		t.Errorf("incidents without a journal = %+v, want one with no journal offset", infos)
	}
	srv, err := e.ServeObs("127.0.0.1:0", false)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
