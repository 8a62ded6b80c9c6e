package main

import (
	"strings"
	"testing"
	"time"

	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
)

// TestReplayReport writes a victim-heavy journal and checks the offline
// dashboard: the replayed monitor grades the recording critical, the hot
// key surfaces in the top-K panel, and the render pipeline accepts the
// replayed report unchanged. The journal also holds a "reset" note, as ones
// written while the manager still had a reset protocol do: the replay skips
// it.
func TestReplayReport(t *testing.T) {
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

	rep, err := replayReport(dir, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != "critical" {
		t.Fatalf("replayed state = %q, want critical (abort rate 5/6 per window)", rep.State)
	}
	if len(rep.Windows) == 0 {
		t.Fatal("replayed report has no closed windows")
	}
	// The same journal through health.Replay — what colockreplay's SLO replay
	// calls — ends in the same state over the same windows.
	recs, _, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := health.Replay(recs, time.Second, health.DefaultSLO)
	if mon == nil {
		t.Fatal("health.Replay found nothing to replay")
	}
	if rep.State != mon.State().String() || len(rep.Windows) != len(mon.Windows(10)) {
		t.Errorf("report says %s over %d windows, health.Replay %s over %d", rep.State, len(rep.Windows), mon.State(), len(mon.Windows(10)))
	}
	if len(rep.TopK) == 0 || !strings.Contains(rep.TopK[0].Resource, "cells/c1") {
		t.Fatalf("top-K = %+v, want the hot trajectory leaf first", rep.TopK)
	}
	var sb strings.Builder
	render(&sb, rep, false)
	out := sb.String()
	if !strings.Contains(out, "critical") || !strings.Contains(out, "cells/c1") {
		t.Errorf("rendered replay missing verdict or hot key:\n%s", out)
	}
}

// TestReplayReportEmptyDir pins the error path for a journal with nothing
// in it.
func TestReplayReportEmptyDir(t *testing.T) {
	if _, err := replayReport(t.TempDir(), time.Second); err == nil {
		t.Fatal("empty journal dir replayed without error")
	}
}
