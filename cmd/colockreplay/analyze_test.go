package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/trace"
)

var base = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return base.Add(d) }

// rec builds one synthetic record.
func rec(seq uint64, kind string, txn lock.TxnID, res lock.Resource, mode lock.Mode, t time.Time) journal.Record {
	return journal.Record{Seq: seq, Event: lock.Event{Kind: kind, Txn: txn, Resource: res, Mode: mode, At: t}}
}

func TestConvoyDetection(t *testing.T) {
	const res = lock.Resource("db/seg/cells/c1")
	var recs []journal.Record
	seq := uint64(0)
	next := func(r journal.Record) {
		seq++
		r.Seq = seq
		recs = append(recs, r)
	}
	// Five waiters pile up 1ms apart, then drain via grants.
	for i := 1; i <= 5; i++ {
		next(rec(0, "wait", lock.TxnID(i), res, lock.X, at(time.Duration(i)*time.Millisecond)))
	}
	for i := 1; i <= 5; i++ {
		g := rec(0, "grant", lock.TxnID(i), res, lock.X, at(time.Duration(10+i)*time.Millisecond))
		g.Waited = true
		next(g)
	}
	rep := analyze("t", recs, false, Config{ConvoyDepth: 3})
	if len(rep.Convoys) != 1 {
		t.Fatalf("convoys = %d, want 1: %+v", len(rep.Convoys), rep.Convoys)
	}
	c := rep.Convoys[0]
	if c.Resource != string(res) || c.PeakDepth != 5 {
		t.Fatalf("convoy = %+v, want resource %s peak 5", c, res)
	}
	if c.Waiters < 5 {
		t.Fatalf("convoy waiters = %d, want ≥5", c.Waiters)
	}
	if len(c.Timeline) < 2 {
		t.Fatalf("convoy timeline = %+v, want a depth trajectory", c.Timeline)
	}
	if len(rep.OpenWaits) != 0 {
		t.Fatalf("open waits = %+v, want none after drain", rep.OpenWaits)
	}
	// Below the threshold: no convoy.
	rep = analyze("t", recs, false, Config{ConvoyDepth: 6})
	if len(rep.Convoys) != 0 {
		t.Fatalf("convoys with threshold 6 = %+v, want none", rep.Convoys)
	}
}

func TestNearMissAndCaughtCycles(t *testing.T) {
	rA, rB := lock.Resource("a"), lock.Resource("b")
	w := func(seq uint64, txn lock.TxnID, res lock.Resource, t time.Time, blockers ...lock.TxnID) journal.Record {
		r := rec(seq, "wait", txn, res, lock.X, t)
		r.Blockers = blockers
		return r
	}
	recs := []journal.Record{
		// Near miss: 1⇄2 forms at 2ms, txn 2 times out at 5ms.
		w(1, 1, rA, at(1*time.Millisecond), 2),
		w(2, 2, rB, at(2*time.Millisecond), 1),
		rec(3, "timeout", 2, rB, lock.X, at(5*time.Millisecond)),
		rec(4, "grant", 1, rA, lock.X, at(6*time.Millisecond)),
		// Caught: 3⇄4 forms at 8ms, the detector kills txn 4 at 9ms.
		w(5, 3, rA, at(7*time.Millisecond), 4),
		w(6, 4, rB, at(8*time.Millisecond), 3),
		rec(7, "victim", 4, rB, lock.X, at(9*time.Millisecond)),
		rec(8, "grant", 3, rA, lock.X, at(10*time.Millisecond)),
	}
	rep := analyze("t", recs, false, Config{})
	if len(rep.Cycles) != 2 {
		t.Fatalf("cycles = %+v, want 2", rep.Cycles)
	}
	if rep.NearMisses != 1 {
		t.Fatalf("near misses = %d, want 1", rep.NearMisses)
	}
	miss, caught := rep.Cycles[0], rep.Cycles[1]
	if !miss.NearMiss || miss.BrokenBy != "timeout" || miss.BrokenTxn != 2 {
		t.Fatalf("near-miss cycle = %+v", miss)
	}
	if miss.LastedMs < 2.9 || miss.LastedMs > 3.1 {
		t.Fatalf("near-miss lasted %.2fms, want ~3ms", miss.LastedMs)
	}
	if caught.NearMiss || caught.BrokenBy != "victim-detect" || caught.BrokenTxn != 4 {
		t.Fatalf("caught cycle = %+v", caught)
	}
	if len(miss.Txns) != 2 || miss.Txns[0] != 1 || miss.Txns[1] != 2 {
		t.Fatalf("near-miss members = %v, want [1 2]", miss.Txns)
	}
}

func TestUnresolvedCycleAndOpenWaits(t *testing.T) {
	recs := []journal.Record{
		{Seq: 1, Event: lock.Event{Kind: "wait", Txn: 1, Resource: "a", Mode: lock.X, At: at(time.Millisecond), Blockers: []lock.TxnID{2}}},
		{Seq: 2, Event: lock.Event{Kind: "wait", Txn: 2, Resource: "b", Mode: lock.X, At: at(2 * time.Millisecond), Blockers: []lock.TxnID{1}}},
		{Seq: 3, Event: lock.Event{Kind: "grant", Txn: 9, Resource: "c", Mode: lock.S, At: at(10 * time.Millisecond)}},
	}
	rep := analyze("t", recs, false, Config{})
	if len(rep.Cycles) != 1 || rep.Cycles[0].BrokenBy != "unresolved" || !rep.Cycles[0].NearMiss {
		t.Fatalf("cycles = %+v, want one unresolved near miss", rep.Cycles)
	}
	if len(rep.OpenWaits) != 2 {
		t.Fatalf("open waits = %+v, want txns 1 and 2", rep.OpenWaits)
	}
	if rep.OpenWaits[0].Txn != 1 || rep.OpenWaits[0].SinceMs < 8.9 {
		t.Fatalf("open wait[0] = %+v, want txn 1 blocked ~9ms", rep.OpenWaits[0])
	}
}

func TestCriticalPathsAndHotResources(t *testing.T) {
	hot := lock.Resource("db/seg/cells/c1/robots/r1/trajectory")
	recs := []journal.Record{
		{Seq: 1, Event: lock.Event{Kind: "wait", Txn: 1, Resource: hot, Mode: lock.X, At: at(0), Blockers: []lock.TxnID{7}}},
		{Seq: 2, Event: lock.Event{Kind: "grant", Txn: 1, Resource: hot, Mode: lock.X, At: at(50 * time.Millisecond), Waited: true, Dur: 50 * time.Millisecond}},
		{Seq: 3, Event: lock.Event{Kind: "wait", Txn: 1, Resource: "other", Mode: lock.S, At: at(60 * time.Millisecond)}},
		{Seq: 4, Event: lock.Event{Kind: "grant", Txn: 1, Resource: "other", Mode: lock.S, At: at(70 * time.Millisecond), Waited: true}}, // Dur omitted: computed from At
		{Seq: 5, Event: lock.Event{Kind: "wait", Txn: 2, Resource: hot, Mode: lock.X, At: at(80 * time.Millisecond)}},
		{Seq: 6, Event: lock.Event{Kind: "victim", Txn: 2, Resource: hot, Mode: lock.X, At: at(85 * time.Millisecond), Dur: 5 * time.Millisecond}},
	}
	rep := analyze("t", recs, false, Config{})
	if len(rep.CriticalPaths) != 2 {
		t.Fatalf("paths = %+v, want 2", rep.CriticalPaths)
	}
	p := rep.CriticalPaths[0]
	if p.Txn != 1 || len(p.Steps) != 2 {
		t.Fatalf("top path = %+v, want txn 1 with 2 steps", p)
	}
	if p.BlockedMs < 59 || p.BlockedMs > 61 {
		t.Fatalf("txn 1 blocked %.2fms, want ~60 (50 explicit + 10 computed)", p.BlockedMs)
	}
	if p.Steps[0].Outcome != "grant" || len(p.Steps[0].Blockers) != 1 || p.Steps[0].Blockers[0] != 7 {
		t.Fatalf("step[0] = %+v, want grant behind txn 7", p.Steps[0])
	}
	if rep.CriticalPaths[1].Steps[0].Outcome != "victim-detect" {
		t.Fatalf("txn 2 outcome = %+v, want victim-detect", rep.CriticalPaths[1].Steps[0])
	}
	if len(rep.Hot) == 0 || rep.Hot[0].Resource != string(hot) {
		t.Fatalf("hot = %+v, want %s first", rep.Hot, hot)
	}
	if rep.Hot[0].Blocks != 3 { // 2 waits + 1 victim
		t.Fatalf("hot blocks = %d, want 3", rep.Hot[0].Blocks)
	}
	if rep.AbortRate < 0.3 || rep.AbortRate > 0.35 { // 1 abort / 3 attempts
		t.Fatalf("abort rate = %.3f, want 1/3", rep.AbortRate)
	}
}

func TestSLOReplayGradesHistory(t *testing.T) {
	slo := health.SLO{MaxAbortRate: 0.05, WarnAfter: 1, CritAfter: 2, RecoverAfter: 2}
	// Six 1s windows of victim-heavy traffic: the replayed monitor must
	// escalate to critical and stay there.
	var recs []journal.Record
	seq := uint64(0)
	for win := 0; win < 6; win++ {
		t0 := at(time.Duration(win) * time.Second)
		for i := 0; i < 5; i++ {
			seq++
			recs = append(recs, journal.Record{Seq: seq, Event: lock.Event{Kind: "victim", Txn: lock.TxnID(seq), Resource: "r", Mode: lock.X, At: t0.Add(time.Duration(i) * time.Millisecond)}})
		}
		seq++
		recs = append(recs, journal.Record{Seq: seq, Event: lock.Event{Kind: "grant", Txn: lock.TxnID(seq), Resource: "r", Mode: lock.X, At: t0.Add(10 * time.Millisecond)}})
	}
	rep := analyze("t", recs, false, Config{Window: time.Second, SLO: slo})
	if rep.SLO.WorstState != "critical" || rep.SLO.FinalState != "critical" {
		t.Fatalf("SLO replay = %+v, want critical/critical", rep.SLO)
	}
	if len(rep.SLO.Transitions) == 0 || !strings.Contains(rep.SLO.Transitions[0], "abort rate") {
		t.Fatalf("transitions = %v, want an abort-rate escalation first", rep.SLO.Transitions)
	}
	// The same records through health.Replay directly end in the same state
	// over the same windows.
	mon, trs := health.Replay(recs, time.Second, slo)
	if mon == nil {
		t.Fatal("health.Replay found nothing to replay")
	}
	if rep.SLO.FinalState != mon.State().String() || rep.SLO.Windows != len(mon.Windows(0)) || len(rep.SLO.Transitions) != len(trs) {
		t.Errorf("SLO replay %+v, health.Replay %s over %d windows with %d transitions", rep.SLO, mon.State(), len(mon.Windows(0)), len(trs))
	}

	// A healthy stream grades ok.
	healthy := []journal.Record{
		{Seq: 1, Event: lock.Event{Kind: "grant", Txn: 1, Resource: "r", Mode: lock.S, At: at(0)}},
		{Seq: 2, Event: lock.Event{Kind: "grant", Txn: 2, Resource: "r", Mode: lock.S, At: at(3 * time.Second)}},
	}
	rep = analyze("t", healthy, false, Config{Window: time.Second, SLO: slo})
	if rep.SLO.WorstState != "ok" || rep.SLO.FinalState != "ok" {
		t.Fatalf("healthy SLO replay = %+v, want ok/ok", rep.SLO)
	}
	if rep.SLO.Windows == 0 {
		t.Fatalf("healthy replay closed no windows")
	}
}

func TestFilterAround(t *testing.T) {
	var recs []journal.Record
	for i := 1; i <= 10; i++ {
		recs = append(recs, journal.Record{Seq: uint64(i), Event: lock.Event{Kind: "grant", Txn: lock.TxnID(i), Resource: "r", At: at(time.Duration(i) * time.Second)}})
	}
	inc := &trace.Incident{At: at(7 * time.Second), JournalOffset: 6}
	got := filterAround(recs, inc, 4*time.Second)
	// Offset caps at Seq 6; the 4s window keeps At ∈ [3s, 7s] → Seq 3..6.
	if len(got) != 4 || got[0].Seq != 3 || got[3].Seq != 6 {
		t.Fatalf("filtered = %+v, want Seq 3..6", got)
	}
	// Without an offset the time window alone governs.
	inc = &trace.Incident{At: at(7 * time.Second)}
	got = filterAround(recs, inc, 2*time.Second)
	if len(got) != 3 || got[0].Seq != 5 || got[2].Seq != 7 {
		t.Fatalf("filtered = %+v, want Seq 5..7", got)
	}
}

func TestDiffReport(t *testing.T) {
	a := analyze("a", []journal.Record{
		{Seq: 1, Event: lock.Event{Kind: "grant", Txn: 1, Resource: "r", Mode: lock.X, At: at(0)}},
	}, false, Config{})
	b := analyze("b", []journal.Record{
		{Seq: 1, Event: lock.Event{Kind: "wait", Txn: 1, Resource: "r", Mode: lock.X, At: at(0)}},
		{Seq: 2, Event: lock.Event{Kind: "victim", Txn: 1, Resource: "r", Mode: lock.X, At: at(time.Millisecond)}},
	}, false, Config{})
	lines := diffReport(a, b)
	byName := map[string]diffLine{}
	for _, l := range lines {
		byName[l.Name] = l
	}
	if l := byName["victims"]; l.A != "0" || l.B != "1" {
		t.Fatalf("victims row = %+v", l)
	}
	if l := byName["hottest resource"]; l.A != "-" || !strings.Contains(l.B, "r (") {
		t.Fatalf("hottest row = %+v", l)
	}
}

// TestRenderSmoke pins that the text renderer mentions every section for a
// rich report and never panics.
func TestRenderSmoke(t *testing.T) {
	recs := []journal.Record{
		{Seq: 1, Event: lock.Event{Kind: "wait", Txn: 1, Resource: "a", Mode: lock.X, At: at(time.Millisecond), Blockers: []lock.TxnID{2}}},
		{Seq: 2, Event: lock.Event{Kind: "wait", Txn: 2, Resource: "b", Mode: lock.X, At: at(2 * time.Millisecond), Blockers: []lock.TxnID{1}}},
		{Seq: 3, Event: lock.Event{Kind: "wait", Txn: 3, Resource: "b", Mode: lock.X, At: at(2 * time.Millisecond), Blockers: []lock.TxnID{1}}},
		{Seq: 4, Event: lock.Event{Kind: "wait", Txn: 4, Resource: "b", Mode: lock.X, At: at(2 * time.Millisecond), Blockers: []lock.TxnID{1}}},
		{Seq: 5, Event: lock.Event{Kind: "timeout", Txn: 2, Resource: "b", Mode: lock.X, At: at(5 * time.Millisecond), Dur: 3 * time.Millisecond}},
		{Seq: 6, Event: lock.Event{Kind: "grant", Txn: 1, Resource: "a", Mode: lock.X, At: at(6 * time.Millisecond), Waited: true, Dur: 5 * time.Millisecond}},
	}
	rep := analyze("t", recs, true, Config{ConvoyDepth: 3})
	var sb strings.Builder
	printReport(&sb, rep, Config{ConvoyDepth: 3})
	out := sb.String()
	for _, want := range []string{"torn tail", "SLO replay", "hot resources", "convoys", "NEAR MISS", "critical paths", "still blocked"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestOldJournalResetMarker: journals written while the manager still had a
// reset protocol hold "reset" notes between benchmark phases. Nothing writes
// them any more, but such a journal must still read back and analyze — the
// marker is counted as a record of its kind and otherwise skipped, so every
// finding equals that of the same history without it.
func TestOldJournalResetMarker(t *testing.T) {
	const res = lock.Resource("db/seg/cells/c1")
	replay := func(marker bool) *Report {
		dir := t.TempDir()
		jw, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			jw.Record(lock.Event{Kind: "wait", Txn: lock.TxnID(i), Resource: res, Mode: lock.X, At: at(time.Duration(i) * time.Millisecond)})
		}
		if marker {
			jw.Record(lock.Event{Kind: "reset", At: at(5 * time.Millisecond)})
		}
		for i := 1; i <= 4; i++ {
			jw.Record(lock.Event{Kind: "grant", Txn: lock.TxnID(i), Resource: res, Mode: lock.X, Waited: true,
				At: at(time.Duration(10+i) * time.Millisecond), Dur: 10 * time.Millisecond})
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		recs, torn, err := journal.ReadAll(dir)
		if err != nil || torn {
			t.Fatalf("ReadAll: torn=%v err=%v", torn, err)
		}
		return analyze("t", recs, torn, Config{})
	}
	with, without := replay(true), replay(false)
	if with.Kinds["reset"] != 1 || with.Records != without.Records+1 {
		t.Fatalf("marker not read back: kinds %v, %d records vs %d without", with.Kinds, with.Records, without.Records)
	}
	if len(with.Convoys) != 1 || with.SLO.FinalState == "" {
		t.Fatalf("analysis of the marked journal is empty: %+v", with)
	}
	delete(with.Kinds, "reset")
	with.Records = without.Records
	if !reflect.DeepEqual(with, without) {
		t.Errorf("the marker changed the analysis:\n with    %+v\n without %+v", with, without)
	}
}

// analyzeWithin runs analyze, failing the test if it takes longer than d.
func analyzeWithin(t *testing.T, d time.Duration, recs []journal.Record) *Report {
	t.Helper()
	done := make(chan *Report, 1)
	go func() { done <- analyze("t", recs, false, Config{}) }()
	select {
	case rep := <-done:
		return rep
	case <-time.After(d):
		t.Fatalf("analyze of %d records still running after %v", len(recs), d)
		return nil
	}
}

// TestConvoyReplayIsLinear replays a 64-waiter X convoy: each waiter's
// Blockers name the holder and every earlier waiter, as the manager reports
// them, so a search that enumerates paths grows exponentially with the
// queue. The cycle walk must stay linear.
func TestConvoyReplayIsLinear(t *testing.T) {
	recs := []journal.Record{rec(1, "grant", 1, "hot", lock.X, at(0))}
	blockers := []lock.TxnID{1}
	for i := 2; i <= 65; i++ {
		r := rec(uint64(i), "wait", lock.TxnID(i), "hot", lock.X, at(time.Duration(i)*time.Millisecond))
		r.Blockers = append([]lock.TxnID(nil), blockers...)
		recs = append(recs, r)
		blockers = append(blockers, lock.TxnID(i))
	}
	rep := analyzeWithin(t, 2*time.Second, recs)
	if len(rep.Cycles) != 0 {
		t.Errorf("cycles = %+v, want none in a convoy", rep.Cycles)
	}
	if len(rep.Convoys) != 1 || rep.Convoys[0].PeakDepth != 64 {
		t.Errorf("convoys = %+v, want one of depth 64", rep.Convoys)
	}
}

// TestLongCycleFound replays an 80-member waits-for ring: the cycle has no
// length cap, so it is reported whole and unresolved.
func TestLongCycleFound(t *testing.T) {
	const n = 80
	var recs []journal.Record
	for i := 1; i <= n; i++ {
		r := rec(uint64(i), "wait", lock.TxnID(i), lock.Resource(fmt.Sprint("r", i%n+1)), lock.X, at(time.Duration(i)*time.Millisecond))
		r.Blockers = []lock.TxnID{lock.TxnID(i%n + 1)}
		recs = append(recs, r)
	}
	rep := analyzeWithin(t, 2*time.Second, recs)
	if len(rep.Cycles) != 1 {
		t.Fatalf("cycles = %+v, want one", rep.Cycles)
	}
	if c := rep.Cycles[0]; len(c.Txns) != n || c.BrokenBy != "unresolved" {
		t.Errorf("cycle has %d members, broken by %q; want %d, unresolved", len(c.Txns), c.BrokenBy, n)
	}
}
