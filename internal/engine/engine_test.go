package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
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

// A contended engine's memory does not grow with the number of waits it has
// seen. Fresh transactions, 16 at a time, queue for X on cells/c1 behind one
// holder and time out after 50µs; heap after GC at 4N waits is within 1 MB
// of heap at N, and the contention table holds at most its capacity.
func TestSoakBlockedWaitsBoundedHeap(t *testing.T) {
	const n, workers = 2000, 16
	e := open(t, t.TempDir())
	ctx := context.Background()
	c1 := store.P("cells", "c1")
	holder := e.Txns.Begin()
	defer holder.Abort()
	if err := holder.LockPath(ctx, c1, lock.X); err != nil {
		t.Fatal(err)
	}
	drive := func(waits int) {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < waits/workers; i++ {
					tx := e.Txns.Begin()
					if err := tx.LockPath(ctx, c1, lock.X, txn.WithTimeout(50*time.Microsecond)); !errors.Is(err, lock.ErrTimeout) {
						t.Errorf("contended X request: %v, want a timeout", err)
					}
					tx.Abort()
				}
			}()
		}
		wg.Wait()
	}
	heap := func() uint64 {
		if err := e.Journal.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	drive(n)
	atN := heap()
	drive(3 * n)
	at4N := heap()
	if t.Failed() {
		return
	}
	if waits := e.Manager.Stats().Waits; waits < 4*n {
		t.Fatalf("%d blocked waits, want at least %d", waits, 4*n)
	}
	t.Logf("heap after GC: %.2f MB at N=%d waits, %.2f MB at 4N", float64(atN)/(1<<20), n, float64(at4N)/(1<<20))
	if at4N > atN+1<<20 {
		t.Errorf("heap grew by %.2f MB between %d and %d waits, want at most 1 MB", float64(at4N-atN)/(1<<20), n, 4*n)
	}
	if slots := len(e.Monitor.Profile().Entries()); slots > trace.DefaultProfileCap {
		t.Errorf("contention table holds %d slots, want at most %d", slots, trace.DefaultProfileCap)
	}
}
