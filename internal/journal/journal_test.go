package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"colock/internal/lock"
)

// at builds a deterministic wall-clock timestamp (no monotonic reading, so
// decoded records compare equal with reflect.DeepEqual).
func at(i int) time.Time { return time.Unix(1700000000, int64(i)*int64(time.Millisecond)) }

// sampleRecords exercises every field: blockers, a release-all summary,
// wait-die flags, zero durations, synthetic kinds.
func sampleRecords() []Record {
	return []Record{
		{Event: lock.Event{Kind: "grant", Txn: 1, Resource: "db1/seg1/cells/c1", Mode: lock.X, Shard: 3, At: at(0), Dur: 42 * time.Microsecond}},
		{Event: lock.Event{Kind: "wait", Txn: 2, Resource: "db1/seg1/cells/c1", Mode: lock.X, Shard: 3, At: at(1), Blockers: []lock.TxnID{1}}},
		{Event: lock.Event{Kind: "grant", Txn: 2, Resource: "db1/seg1/cells/c1", Mode: lock.X, Shard: 3, Waited: true, At: at(2), Dur: time.Millisecond}},
		{Event: lock.Event{Kind: "victim", Txn: 3, Resource: "db1/seg1/cells/c2", Mode: lock.IX, Shard: 5, WaitDie: true, At: at(3), Dur: 7 * time.Millisecond, Blockers: []lock.TxnID{1, 2}}},
		{Event: lock.Event{Kind: "release-all", Txn: 1, Shard: 0, At: at(4), Dur: time.Microsecond}},
		{Event: lock.Event{Kind: "fastpath", At: at(5)}, Hits: 38},
		{Event: lock.Event{Kind: "health", Resource: "ok->warn abort rate 0.4 > 0.05", At: at(6)}},
		{Event: lock.Event{Kind: "reset", At: at(7)}},
	}
}

// push enqueues rec; false when the ring is full.
func (r *eventRing) push(rec Record) bool {
	pos, ok := r.reserve(1)
	if ok {
		r.slots[pos&r.mask].rec = rec
		r.publish(pos)
	}
	return ok
}

func writeJournal(t *testing.T, dir string, opts Options, recs []Record) {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		w.push(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	writeJournal(t, dir, Options{}, want)

	got, torn, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean journal reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != uint64(i+1) {
			t.Errorf("record %d: Seq = %d, want %d", i, got[i].Seq, i+1)
		}
		got[i].Seq = 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestSegmentRotationAndInterning(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations; the repeated resource name must
	// re-intern per segment and still decode everywhere.
	var recs []Record
	for i := 0; i < 500; i++ {
		recs = append(recs, Record{Event: lock.Event{Kind: "grant", Txn: lock.TxnID(i%7 + 1),
			Resource: "db1/seg1/cells/c1/robots/r1/trajectory", Mode: lock.X, At: at(i)}})
	}
	writeJournal(t, dir, Options{MaxSegmentBytes: 1024}, recs)

	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected ≥3 segments from 1KiB rotation, got %d", len(segs))
	}
	got, torn, err := ReadAll(dir)
	if err != nil || torn {
		t.Fatalf("ReadAll: torn=%v err=%v", torn, err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records across %d segments, want %d", len(got), len(segs), len(recs))
	}
	for i, r := range got {
		if r.Resource != recs[i].Resource || r.Txn != recs[i].Txn {
			t.Fatalf("record %d: %+v, want %+v", i, r, recs[i])
		}
	}
}

// TestRotationClearsIDCache: events of two managers — whose ids overlap and
// name different resources — go through a writer whose tiny segments rotate
// mid-stream, emptying the interning tables each time. Every decoded record
// must name what its event named.
func TestRotationClearsIDCache(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var emitted []lock.Event
	rec := sinkFunc(func(evs []lock.Event) {
		mu.Lock()
		emitted = append(emitted, evs...)
		mu.Unlock()
	})
	a := lock.NewManager(lock.Options{Sinks: []lock.EventSink{rec, w}})
	b := lock.NewManager(lock.Options{Sinks: []lock.EventSink{rec, w}})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		for j, m := range []*lock.Manager{a, b} {
			txn := lock.TxnID(2*i + j + 1)
			prefix := []string{"db1/a/", "db1/b/"}[j]
			for k := 0; k < 3; k++ {
				res := lock.Resource(prefix + strconv.Itoa((i+k)%11))
				if err := m.AcquireCtx(ctx, txn, res, lock.X); err != nil {
					t.Fatal(err)
				}
			}
			m.ReleaseAll(txn)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Intern("db1/a/0") != b.Intern("db1/b/0") {
		t.Fatal("the two managers' ids do not overlap; the test covers nothing")
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) < 10 {
		t.Fatalf("%d segments (err %v), want ≥ 10 rotations", len(segs), err)
	}
	got, torn, err := ReadAll(dir)
	if err != nil || torn {
		t.Fatalf("ReadAll: torn=%v err=%v", torn, err)
	}
	if len(got) != len(emitted) {
		t.Fatalf("read %d records, %d events emitted", len(got), len(emitted))
	}
	for i, r := range got {
		e := emitted[i]
		if r.Kind != e.Kind || r.Resource != e.Resource || r.Txn != e.Txn || r.Mode != e.Mode {
			t.Fatalf("record %d = %s, want %s txn=%d %s %s", i, r, e.Kind, e.Txn, e.Mode, e.Resource)
		}
	}
}

type sinkFunc func([]lock.Event)

func (f sinkFunc) Record(e lock.Event)          { f([]lock.Event{e}) }
func (f sinkFunc) RecordBatch(evs []lock.Event) { f(evs) }

// TestOldSweepListDecodes: journals written before the release-all summary
// lost its resource list carry the list's interned ids; they still decode,
// the list checked and dropped.
func TestOldSweepListDecodes(t *testing.T) {
	var buf bytes.Buffer
	enc, err := newSegmentEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kindID, _ := enc.intern("release-all")
	resID, _ := enc.intern("db1/a")
	p := []byte{recEvent}
	p = binary.AppendUvarint(p, uint64(kindID))
	p = binary.AppendUvarint(p, 7) // txn
	p = binary.AppendUvarint(p, 0) // no resource
	p = append(p, byte(lock.None))
	p = binary.AppendUvarint(p, 0) // shard
	p = append(p, 0)               // flags
	p = binary.AppendVarint(p, at(1).UnixNano())
	p = binary.AppendUvarint(p, 5) // dur
	p = binary.AppendUvarint(p, 0) // blockers
	p = binary.AppendUvarint(p, 2) // the old sweep list
	p = binary.AppendUvarint(p, uint64(resID))
	p = binary.AppendUvarint(p, uint64(resID))
	if err := enc.writeFrame(p); err != nil {
		t.Fatal(err)
	}
	dec, err := newSegmentDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.next()
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Event: lock.Event{Kind: "release-all", Txn: 7, At: at(1), Dur: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

func TestReopenAppendsNewSegment(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, Options{}, sampleRecords()[:3])
	writeJournal(t, dir, Options{}, sampleRecords()[3:])

	segs, _ := Segments(dir)
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments after reopen, got %d: %v", len(segs), segs)
	}
	got, torn, err := ReadAll(dir)
	if err != nil || torn {
		t.Fatalf("ReadAll: torn=%v err=%v", torn, err)
	}
	if len(got) != len(sampleRecords()) {
		t.Fatalf("got %d records, want %d", len(got), len(sampleRecords()))
	}
}

// TestTornFinalRecord truncates the last segment mid-record and asserts the
// Reader recovers every record before the tear.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	writeJournal(t, dir, Options{}, want)

	segs, _ := Segments(dir)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int64{1, 3, 7} { // progressively tear deeper into the tail
		if err := os.Truncate(last, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		got, torn, err := ReadAll(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut %d: tear not reported", cut)
		}
		if len(got) != len(want)-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), len(want)-1)
		}
	}
	// Tear away everything but the header: zero records, still tolerated
	// only if the tail is the final segment.
	if err := os.Truncate(last, int64(len(segMagic))+2); err != nil {
		t.Fatal(err)
	}
	got, torn, err := ReadAll(dir)
	if err != nil || !torn || len(got) != 0 {
		t.Fatalf("header-only tail: got %d records torn=%v err=%v", len(got), torn, err)
	}
}

// TestCorruptMiddleSegmentFails: the torn-record tolerance applies only to
// the final segment's tail — damage anywhere else is corruption.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	var recs []Record
	for i := 0; i < 300; i++ {
		recs = append(recs, Record{Event: lock.Event{Kind: "grant", Txn: 1, Resource: lock.Resource(strings.Repeat("r", 40)), At: at(i)}})
	}
	writeJournal(t, dir, Options{MaxSegmentBytes: 2048}, recs)
	segs, _ := Segments(dir)
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(segs))
	}
	info, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], info.Size()-4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadAll(dir); err == nil {
		t.Fatal("mid-journal truncation did not error")
	}

	// A flipped byte (CRC failure) in the final segment's middle still ends
	// the stream there — the length chain is untrustworthy past the flip —
	// but the reader reports the tear rather than inventing records.
	dir2 := t.TempDir()
	writeJournal(t, dir2, Options{}, sampleRecords())
	segs2, _ := Segments(dir2)
	data, err := os.ReadFile(segs2[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+10] ^= 0xff
	if err := os.WriteFile(segs2[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn, err := ReadAll(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(got) != 0 {
		t.Fatalf("flipped first record: got %d records torn=%v", len(got), torn)
	}
}

func TestTimestampOrderAcrossDisorder(t *testing.T) {
	dir := t.TempDir()
	// Write deliberately shuffled timestamps (disorder well inside the
	// reorder window); the reader must emit them sorted.
	var recs []Record
	for i := 0; i < 200; i++ {
		j := i
		if i%2 == 0 && i+5 < 200 {
			j = i + 5
		}
		recs = append(recs, Record{Event: lock.Event{Kind: "grant", Txn: lock.TxnID(i), Resource: "r", At: at(j)}})
	}
	writeJournal(t, dir, Options{}, recs)
	got, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].At.Before(got[i-1].At) {
			t.Fatalf("record %d out of order: %v before %v", i, got[i].At, got[i-1].At)
		}
	}
}

func TestRingFullDropsAndFIFO(t *testing.T) {
	r := newEventRing(4)
	for i := 0; i < 4; i++ {
		if !r.push(Record{Event: lock.Event{Txn: lock.TxnID(i)}}) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.push(Record{Event: lock.Event{Txn: 99}}) {
		t.Fatal("push into a full ring succeeded")
	}
	for i := 0; i < 4; i++ {
		rec, ok := r.pop()
		if !ok || rec.Txn != lock.TxnID(i) {
			t.Fatalf("pop %d: ok=%v txn=%d", i, ok, rec.Txn)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	// Wrap around: capacity is reusable after pops.
	if !r.push(Record{Event: lock.Event{Txn: 7}}) {
		t.Fatal("push after drain failed")
	}
	if rec, ok := r.pop(); !ok || rec.Txn != 7 {
		t.Fatal("wrap-around pop failed")
	}
}

func TestRingConcurrentProducers(t *testing.T) {
	r := newEventRing(1 << 12)
	const producers, each = 8, 400
	var wg sync.WaitGroup
	var droppedMu sync.Mutex
	dropped := 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !r.push(Record{Event: lock.Event{Txn: lock.TxnID(p*each + i)}}) {
					droppedMu.Lock()
					dropped++
					droppedMu.Unlock()
				}
			}
		}(p)
	}
	produced := make(chan struct{})
	done := make(chan struct{})
	seen := make(map[lock.TxnID]bool)
	go func() {
		defer close(done)
		for {
			rec, ok := r.pop()
			if !ok {
				select {
				case <-produced:
					// Producers finished: one final drain, then stop.
					for {
						rec, ok := r.pop()
						if !ok {
							return
						}
						seen[rec.Txn] = true
					}
				default:
					time.Sleep(50 * time.Microsecond)
					continue
				}
			}
			if seen[rec.Txn] {
				t.Error("duplicate record")
				return
			}
			seen[rec.Txn] = true
		}
	}()
	wg.Wait()
	close(produced)
	<-done
	if len(seen)+dropped != producers*each {
		t.Fatalf("records lost: seen %d + dropped %d != %d", len(seen), dropped, producers*each)
	}
}

func TestManagerIntegration(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := lock.NewManager(lock.Options{Sinks: []lock.EventSink{w}})
	ctx := context.Background()
	if err := m.AcquireCtx(ctx, 1, "db1/a", lock.X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(ctx, 1, "db1/b", lock.S); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := ReadAll(dir)
	if err != nil || torn {
		t.Fatalf("ReadAll: torn=%v err=%v", torn, err)
	}
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds["grant"] != 2 || kinds["release-all"] != 1 {
		t.Fatalf("unexpected kinds journaled: %v", kinds)
	}
	st := w.Status()
	if st.Records != uint64(len(recs)) || st.Dropped != 0 || st.Segments != 1 {
		t.Fatalf("bad status: %+v (read %d records)", st, len(recs))
	}
}

func TestStatusAndMetrics(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Note("health", "ok->warn wait p99")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"colock_journal_records_total 1",
		"colock_journal_dropped_total 0",
		"colock_journal_segments 1",
		"colock_journal_bytes_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if w.Offset() != 1 {
		t.Errorf("Offset = %d, want 1", w.Offset())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice is safe.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flush after close returns without hanging.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyDirReads(t *testing.T) {
	got, torn, err := ReadAll(t.TempDir())
	if err != nil || torn || len(got) != 0 {
		t.Fatalf("empty dir: got %d torn=%v err=%v", len(got), torn, err)
	}
}

// FuzzRecordRoundTrip drives arbitrary field values through one
// encoder/decoder pair and asserts the records survive unchanged. In one
// segment it writes the record stamped as a manager's (Code, ID), then a
// record — stamped too when waited is set, literal otherwise — that carries
// the same ID but names extraRes, then the first record again: the encoder
// finds a stamped record's strings by code and id, and must never write the
// name it cached under them for another one. Code and ID are not persisted,
// so the comparison zeroes them.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("grant", uint64(1), "db1/seg1/cells/c1", byte(5), uint32(3), true, false, int64(1700000000e9), int64(250), uint64(2), "db1/x")
	f.Add("", uint64(0), "", byte(0), uint32(0), false, false, int64(0), int64(-5), uint64(0), "")
	f.Add("victim", uint64(1<<63), strings.Repeat("long/", 100), byte(255), uint32(1<<20), true, true, int64(-1), int64(1<<40), uint64(7), "q")
	f.Add("release", uint64(9), "db1/a", byte(1), uint32(2), false, false, int64(3), int64(4), uint64(0), "db1/a")
	f.Fuzz(func(t *testing.T, kind string, txn uint64, resource string, mode byte, shard uint32, waited, waitdie bool, atNanos, dur int64, blocker uint64, extraRes string) {
		code := lock.KindOf(kind)
		if code == lock.KindOther {
			code = lock.KindGrant // stamped with a code its Kind does not spell
		}
		rec := Record{Event: lock.Event{
			Kind:     kind,
			Code:     code,
			Txn:      lock.TxnID(txn),
			Resource: lock.Resource(resource),
			ID:       lock.ResID(shard & 0xffff),
			Mode:     lock.Mode(mode),
			Shard:    int(shard & 0x7fffffff),
			Waited:   waited,
			WaitDie:  waitdie,
		}}
		if atNanos != 0 {
			rec.At = time.Unix(0, atNanos)
		}
		if dur > 0 {
			rec.Dur = time.Duration(dur)
		}
		if blocker != 0 {
			rec.Blockers = []lock.TxnID{lock.TxnID(blocker)}
		}
		other := rec
		other.Resource = lock.Resource(extraRes)
		if !waited {
			other.Code = lock.KindOther
		}
		recs := []Record{rec, other, rec}

		var buf bytes.Buffer
		enc, err := newSegmentEncoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := enc.writeRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := newSegmentDecoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range recs {
			got, err := dec.next()
			if err != nil {
				t.Fatal(err)
			}
			want.Code, want.ID = lock.KindOther, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}
