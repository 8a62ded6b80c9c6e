package colock_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/trace"
)

// batchLog captures an event stream with its delivery-round boundaries, and
// the fast-path hits that fell between rounds.
type batchLog struct {
	mu      sync.Mutex
	batches [][]lock.Event
	hits    []int // hits[i] precede batches[i]
	pending int
}

func (l *batchLog) RecordBatch(evs []lock.Event) {
	l.mu.Lock()
	l.batches = append(l.batches, append([]lock.Event(nil), evs...)) // borrowed: copy
	l.hits = append(l.hits, l.pending)
	l.pending = 0
	l.mu.Unlock()
}

func (l *batchLog) Record(lock.Event) { panic("a BatchSink must be fed by RecordBatch only") }

func (l *batchLog) hit() {
	l.mu.Lock()
	l.pending++
	l.mu.Unlock()
}

// recordLog is a sink with Record only, attached next to the batch sink.
type recordLog struct {
	mu     sync.Mutex
	events []lock.Event
}

func (l *recordLog) Record(e lock.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// recordMixedStream drives real managers through every event kind — grant,
// convert, wait, grant-after-wait, downgrade, timeout, cancel, detected
// victim, shed, release, release-all on a detecting manager; a wait-die death
// on a second one — with fast-path hits in between.
func recordMixedStream(t *testing.T) (*batchLog, *recordLog) {
	t.Helper()
	ctx := context.Background()
	bl, rl := &batchLog{}, &recordLog{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	queued := func(m *lock.Manager, n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); m.WaitingTxns() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d requests queued after 5s", m.WaitingTxns(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	m := lock.NewManager(lock.Options{Sinks: []lock.EventSink{bl, rl}})
	defer m.Close()
	must(m.AcquireCtx(ctx, 1, "db/a", lock.S))
	bl.hit()
	bl.hit()
	must(m.AcquireCtx(ctx, 1, "db/a", lock.X)) // convert
	must(m.AcquireCtx(ctx, 1, "db/b", lock.X))
	must(m.DowngradeID(1, m.Intern("db/b"), lock.S))
	bl.hit()

	granted := make(chan error, 1)
	go func() { granted <- m.AcquireCtx(ctx, 2, "db/a", lock.X) }() // wait, then grant
	queued(m, 1)
	if err := m.AcquireCtx(ctx, 3, "db/a", lock.S, lock.WithTimeout(2*time.Millisecond)); err == nil {
		t.Fatal("txn 3 should have timed out behind txn 1 and 2")
	}
	cctx, cancel := context.WithCancel(ctx)
	canceled := make(chan error, 1)
	go func() { canceled <- m.AcquireCtx(cctx, 4, "db/a", lock.S) }()
	queued(m, 2)
	cancel()
	if err := <-canceled; err == nil {
		t.Fatal("txn 4 should have been canceled")
	}
	m.ConfigureAdmission(lock.AdmissionConfig{MaxWaiters: 1, Mode: lock.AdmitDegrade})
	if err := m.AcquireCtx(ctx, 5, "db/a", lock.S); err == nil {
		t.Fatal("txn 5 should have been shed")
	}
	m.ConfigureAdmission(lock.AdmissionConfig{})
	m.ReleaseID(1, m.Intern("db/b"))
	m.ReleaseAll(1) // releases db/a and wakes txn 2
	must(<-granted)
	for i := 0; i < 5; i++ {
		bl.hit()
	}

	// AB-BA: txn 2 holds db/a, txn 6 holds db/c; 6 is the younger and dies.
	must(m.AcquireCtx(ctx, 6, "db/c", lock.X))
	survivor := make(chan error, 1)
	go func() { survivor <- m.AcquireCtx(ctx, 2, "db/c", lock.X) }()
	queued(m, 1)
	if err := m.AcquireCtx(ctx, 6, "db/a", lock.X); err == nil {
		t.Fatal("txn 6 should have died as the deadlock victim")
	}
	m.ReleaseAll(6)
	must(<-survivor)
	m.ReleaseAll(2)

	wd := lock.NewManager(lock.Options{Policy: lock.PolicyWaitDie, Sinks: []lock.EventSink{bl, rl}})
	defer wd.Close()
	must(wd.AcquireCtx(ctx, 7, "db/d", lock.X))
	if err := wd.AcquireCtx(ctx, 8, "db/d", lock.X); err == nil {
		t.Fatal("txn 8 should have died by wait-die")
	}
	wd.ReleaseAll(7)
	return bl, rl
}

// sinkSet is a fresh instance of every event sink of the colockd wiring.
type sinkSet struct {
	col  *obs.Collector
	iw   *trace.IncidentWriter
	mon  *health.Monitor
	jw   *journal.Writer
	jdir string
}

func newSinkSet(t *testing.T, start time.Time) *sinkSet {
	t.Helper()
	s := &sinkSet{col: obs.NewCollector(obs.Options{}), jdir: t.TempDir()}
	s.iw = trace.NewIncidentWriter(t.TempDir(), nil, nil, trace.IncidentOptions{})
	// One window holds the whole stream, whatever second it was recorded in.
	s.mon = health.NewMonitor(health.Options{Window: time.Hour, Start: start})
	var err error
	if s.jw, err = journal.Open(s.jdir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *sinkSet) sinks() []lock.EventSink {
	return []lock.EventSink{s.col, s.jw, s.iw, s.mon}
}

func (s *sinkSet) hit() {
	s.mon.RecordFastPathHit()
	s.jw.RecordFastPathHit()
}

// Every sink computes the same thing whether it is fed event by event through
// Record or an operation at a time through RecordBatch, and a sink that has
// only Record sees the events of the batch sinks next to it, in their order.
func TestRecordAndRecordBatchEquivalent(t *testing.T) {
	bl, rl := recordMixedStream(t)

	var flat []lock.Event
	kinds := map[string]int{}
	hits := 0
	for i, b := range bl.batches {
		flat = append(flat, b...)
		hits += bl.hits[i]
		for _, e := range b {
			kinds[e.Kind]++
			if e.Kind == "victim" && e.WaitDie {
				kinds["wait-die"]++
			}
		}
	}
	for _, k := range []string{"grant", "convert", "wait", "release", "release-all", "victim", "wait-die", "timeout", "cancel", "shed", "downgrade"} {
		if kinds[k] == 0 {
			t.Errorf("the recorded stream has no %q event: %v", k, kinds)
		}
	}
	if hits == 0 {
		t.Error("the recorded stream has no fast-path hits")
	}
	// Two concurrent operations may reach the two sinks in either order, so
	// order is compared per transaction.
	byTxn := func(evs []lock.Event) map[lock.TxnID][]lock.Event {
		out := map[lock.TxnID][]lock.Event{}
		for _, e := range evs {
			out[e.Txn] = append(out[e.Txn], e)
		}
		return out
	}
	if !reflect.DeepEqual(byTxn(rl.events), byTxn(flat)) {
		t.Errorf("the Record-only sink saw %d events, the batch sink %d, or in another order", len(rl.events), len(flat))
	}

	one, batch := newSinkSet(t, flat[0].At), newSinkSet(t, flat[0].At)
	for i, b := range bl.batches {
		for k := 0; k < bl.hits[i]; k++ {
			one.hit()
			batch.hit()
		}
		for _, sink := range one.sinks() {
			for _, e := range b {
				sink.Record(e)
			}
		}
		for _, sink := range batch.sinks() {
			sink.(lock.BatchSink).RecordBatch(b)
		}
	}

	if a, b := one.col.EventCounts(), batch.col.EventCounts(); !reflect.DeepEqual(a, b) {
		t.Errorf("collector event counts: Record %v, RecordBatch %v", a, b)
	}
	ha, hb := one.col.Histograms(), batch.col.Histograms()
	if len(ha) == 0 || !reflect.DeepEqual(ha, hb) {
		t.Errorf("collector histograms differ (or are empty): Record %d views, RecordBatch %d", len(ha), len(hb))
	}
	if a, b := one.mon.Current(), batch.mon.Current(); !reflect.DeepEqual(a, b) || a.Counts[health.RateFastPath] != uint64(hits) {
		t.Errorf("monitor windows: Record %+v, RecordBatch %+v (want %d fast-path hits)", a, b, hits)
	}
	if a, b := one.mon.Profile().TopK(0), batch.mon.Profile().TopK(0); !reflect.DeepEqual(a, b) {
		t.Errorf("monitor hot keys: Record %v, RecordBatch %v", a, b)
	}
	if a, b := one.mon.Profile().FoldedStacks(), batch.mon.Profile().FoldedStacks(); a == "" || a != b {
		t.Errorf("contention profiles differ (or are empty):\nRecord:\n%s\nRecordBatch:\n%s", a, b)
	}
	ia, ib := one.iw.Incidents(), batch.iw.Incidents()
	if len(ia) != len(ib) || len(ia) != kinds["victim"]+kinds["timeout"] {
		t.Fatalf("incidents: Record %d, RecordBatch %d, want %d", len(ia), len(ib), kinds["victim"]+kinds["timeout"])
	}
	for i := range ia {
		if ia[i].Reason != ib[i].Reason || ia[i].Txn != ib[i].Txn || ia[i].Resource != ib[i].Resource || ia[i].Mode != ib[i].Mode {
			t.Errorf("incident %d: Record %+v, RecordBatch %+v", i, ia[i], ib[i])
		}
	}

	read := func(s *sinkSet) []journal.Record {
		t.Helper()
		if err := s.jw.Close(); err != nil {
			t.Fatal(err)
		}
		if st := s.jw.Status(); st.Dropped != 0 || st.Accepted != st.Records {
			t.Fatalf("journal status %+v: want nothing dropped, everything written", st)
		}
		recs, torn, err := journal.ReadAll(s.jdir)
		if err != nil || torn {
			t.Fatalf("journal re-read: torn=%v err=%v", torn, err)
		}
		return recs
	}
	ja, jb := read(one), read(batch)
	if !reflect.DeepEqual(ja, jb) {
		t.Errorf("journals differ: Record wrote %d records, RecordBatch %d", len(ja), len(jb))
	}
	journaled, events := uint64(0), 0
	for _, r := range ja {
		if r.Kind == "fastpath" {
			journaled += r.Hits
		} else {
			events++
		}
	}
	if journaled != uint64(hits) || events != len(flat) {
		t.Errorf("journal holds %d events and %d fast-path hits, want %d and %d", events, journaled, len(flat), hits)
	}
}
