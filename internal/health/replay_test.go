package health

import (
	"testing"
	"time"

	"colock/internal/journal"
	"colock/internal/lock"
)

// TestReplay: a victim-heavy recording grades critical offline, with the
// escalation visible as transitions; records that are not lock events are
// folded in (fastpath) or skipped (health, reset), and a recording without
// timestamps has nothing to anchor a monitor at.
func TestReplay(t *testing.T) {
	base := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	var recs []journal.Record
	for win := 0; win < 4; win++ {
		t0 := base.Add(time.Duration(win) * time.Second)
		for i := 0; i < 5; i++ {
			recs = append(recs, journal.Record{Event: lock.Event{Kind: "victim", Txn: lock.TxnID(len(recs) + 1), Resource: "db/s/r/hot", Mode: lock.X, At: t0.Add(time.Duration(i) * time.Millisecond)}})
		}
		recs = append(recs,
			journal.Record{Event: lock.Event{Kind: "grant", Txn: lock.TxnID(len(recs) + 1), Resource: "db/s/r/hot", Mode: lock.X, At: t0.Add(10 * time.Millisecond)}},
			journal.Record{Event: lock.Event{Kind: "fastpath", At: t0.Add(11 * time.Millisecond)}, Hits: 7},
			journal.Record{Event: lock.Event{Kind: "health", At: t0.Add(12 * time.Millisecond)}},
			journal.Record{Event: lock.Event{Kind: "reset", At: t0.Add(13 * time.Millisecond)}})
	}
	mon, trs := Replay(recs, time.Second, DefaultSLO)
	if mon == nil {
		t.Fatal("no monitor for a timestamped recording")
	}
	if mon.State() != StateCritical {
		t.Errorf("final state %v, want critical (abort rate 5/6 in every window)", mon.State())
	}
	if len(trs) == 0 || trs[len(trs)-1].To != StateCritical {
		t.Errorf("transitions %+v, want an escalation ending in critical", trs)
	}
	wins := mon.Windows(0)
	if len(wins) != 4 {
		t.Fatalf("%d closed windows, want the recording's 4", len(wins))
	}
	for _, w := range wins {
		if got := w.Counts[RateFastPath]; got != 7 {
			t.Errorf("window %v counted %d fast-path hits, want the record's 7", w.Start, got)
		}
		if got := w.Counts[RateAcquires]; got != 1 {
			t.Errorf("window %v counted %d acquires, want 1 (health and reset records are not events)", w.Start, got)
		}
	}

	for i := range recs {
		recs[i].At = time.Time{}
	}
	if mon, trs := Replay(recs, time.Second, DefaultSLO); mon != nil || trs != nil {
		t.Errorf("recording without timestamps replayed: %v %v", mon, trs)
	}
}

// TestReplayJournalReport writes a victim-heavy journal to disk, reads it
// back and checks the replayed report: it grades the recording critical
// over closed windows, and its top-K leads with the hot key, since five
// victims a window survive the halving at every window close. The journal
// also holds a "reset" note, as ones written while the manager still had a
// reset protocol do: the replay skips it.
func TestReplayJournalReport(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	hot := lock.Resource("db1/seg1/cells/c1/robots/r1/trajectory")
	txn := lock.TxnID(0)
	for win := 0; win < 4; win++ {
		t0 := base.Add(time.Duration(win) * time.Second)
		for i := 0; i < 5; i++ {
			txn++
			jw.Record(lock.Event{Kind: "wait", Txn: txn, Resource: hot, Mode: lock.X, At: t0.Add(time.Duration(i) * time.Millisecond)})
			jw.Record(lock.Event{Kind: "victim", Txn: txn, Resource: hot, Mode: lock.X, At: t0.Add(time.Duration(i)*time.Millisecond + 500*time.Microsecond), Dur: 500 * time.Microsecond})
		}
		txn++
		jw.Record(lock.Event{Kind: "grant", Txn: txn, Resource: hot, Mode: lock.X, At: t0.Add(10 * time.Millisecond)})
		if win == 1 {
			jw.Record(lock.Event{Kind: "reset", At: t0.Add(20 * time.Millisecond)})
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := Replay(recs, time.Second, DefaultSLO)
	if mon == nil {
		t.Fatal("Replay found nothing to replay")
	}
	rep := mon.Report(0)
	if rep.State != "critical" {
		t.Fatalf("replayed state = %q, want critical (abort rate 5/6 per window)", rep.State)
	}
	if len(rep.Windows) == 0 {
		t.Fatal("replayed report has no closed windows")
	}
	if len(rep.TopK) == 0 || rep.TopK[0].Resource != string(hot) || rep.TopK[0].Mode != "X" {
		t.Errorf("replayed top-K = %+v, want the hot trajectory leaf first", rep.TopK)
	}
}
