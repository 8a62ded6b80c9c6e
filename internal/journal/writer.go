package journal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/lock"
)

// Options configures a Writer. It has no settings: a writer rotates to a
// new segment file once the current one exceeds maxSegmentBytes.
type Options struct{}

const (
	// maxSegmentBytes is the size past which a writer starts a new segment.
	maxSegmentBytes = 8 << 20
	// ringSize is the capacity of the bounded event ring (a power of two).
	// When the ring is full events are dropped and counted — the hot path
	// never blocks on the journal.
	ringSize = 8192
	// flushEvery is the background flush period for the buffered segment
	// writer. Close and Flush always flush.
	flushEvery = 200 * time.Millisecond
)

// Writer persists lock events to an append-only segment journal in dir. It
// implements lock.EventSink and lock.BatchSink: Record and RecordBatch copy
// the events into a lock-free ring and return; a single background goroutine
// drains, interns, encodes and writes. Attach it with Manager.AttachSink.
type Writer struct {
	dir        string
	maxSegment int64 // rotate past this many bytes
	ring       *eventRing

	// notify wakes the writer goroutine; see wake for who sends when.
	notify  chan struct{}
	parked  atomic.Bool
	flushCh chan chan error
	done    chan struct{}
	stopped chan struct{}
	once    sync.Once

	// hits counts fast-path hits not yet in the record stream; the next
	// accepted record (or Flush/Close) folds them into one KindFastPath record.
	hits atomic.Uint64

	accepted atomic.Uint64 // records accepted into the ring
	dropped  atomic.Uint64 // records dropped (ring full or sticky write error)
	written  atomic.Uint64 // records persisted, == the Reader's Seq ordinals
	bytes    atomic.Int64  // bytes written across all segments
	segments atomic.Uint64 // segment files created (pre-existing included)
	curSeg   atomic.Uint64 // current segment sequence number

	writeErr atomic.Pointer[error] // sticky: first write failure

	// Consumer-goroutine state; never touched by producers.
	f           *os.File
	bw          *bufio.Writer
	enc         *segmentEncoder
	closedBytes int64 // bytes in closed segments; live segment adds enc.n
}

// Open creates (or appends to) the journal directory and starts the writer
// goroutine. Existing segments are never modified: writing always begins a
// fresh segment numbered after the highest present.
func Open(dir string, _ Options) (*Writer, error) {
	return open(dir, maxSegmentBytes)
}

// open is Open with the segment size as a parameter, which tests shrink to
// force rotations.
func open(dir string, maxSegment int64) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	existing, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(existing); n > 0 {
		if _, seq, err := parseSegmentName(existing[n-1]); err == nil {
			next = seq + 1
		}
	}
	w := &Writer{
		dir:        dir,
		maxSegment: maxSegment,
		ring:       newEventRing(ringSize),
		notify:     make(chan struct{}, 1),
		flushCh:    make(chan chan error),
		done:       make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	w.segments.Store(uint64(len(existing)))
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	go w.run()
	return w, nil
}

// segmentName formats the file name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("%08d.journal", seq) }

// parseSegmentName extracts the sequence number from a segment path.
func parseSegmentName(path string) (base string, seq uint64, err error) {
	base = filepath.Base(path)
	if _, err = fmt.Sscanf(base, "%08d.journal", &seq); err != nil {
		return base, 0, fmt.Errorf("journal: bad segment name %q", base)
	}
	return base, seq, nil
}

// Segments lists the journal's segment files in write order.
func Segments(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths) // zero-padded names: lexicographic == numeric
	return paths, nil
}

// drainPause is how long the writer goroutine sleeps between looks at the
// ring while records keep arriving (the ring holds 8 records per
// microsecond of it).
const drainPause = time.Millisecond

// Record is the lock.EventSink implementation: enqueue and return. Never
// blocks; a full ring (or a previous write failure) drops the event.
func (w *Writer) Record(e lock.Event) { w.RecordBatch([]lock.Event{e}) }

// RecordBatch is the lock.BatchSink implementation: one operation's events
// take their ring slots with one reservation and at most one wake-up.
func (w *Writer) RecordBatch(evs []lock.Event) {
	n := uint64(len(evs))
	if n == 0 {
		return
	}
	if w.writeErr.Load() != nil {
		w.dropped.Add(n)
		return
	}
	w.foldHits(evs[0].At)
	pos, ok := w.ring.reserve(n)
	if !ok {
		if n == 1 {
			w.dropped.Add(1)
			return
		}
		for i := range evs { // no room for all of them: keep what fits
			w.RecordBatch(evs[i : i+1])
		}
		return
	}
	for i := range evs {
		w.ring.slots[(pos+uint64(i))&w.ring.mask].rec = Record{Event: evs[i]}
		w.ring.publish(pos + uint64(i))
	}
	w.accepted.Add(n)
	w.wake(pos, n)
}

// RecordFastPathHit journals one protocol fast-path hit; wire it to
// core.Protocol.OnFastPathHit (composed with the health monitor's counter).
// It costs one atomic add: hits are counted, and enter the record stream as
// one KindFastPath record carrying the count (Record.Hits), placed ahead of —
// and stamped like — the next record the writer accepts.
func (w *Writer) RecordFastPathHit() { w.hits.Add(1) }

// foldHits moves the counted hits into the record stream, stamped at. If the
// ring has no room the count stays pending: hits can be late, never lost.
func (w *Writer) foldHits(at time.Time) {
	if w.hits.Load() == 0 {
		return
	}
	if n := w.hits.Swap(0); n > 0 && !w.push(Record{Event: lock.Event{Kind: KindFastPath, At: at}, Hits: n}) {
		w.hits.Add(n)
	}
}

// Note journals a synthetic event, e.g. KindHealth with an SLO
// transition summary as detail — the same convention the colockshell trace
// ring uses for non-lock events.
func (w *Writer) Note(kind, detail string) {
	now := time.Now()
	w.foldHits(now)
	if !w.push(Record{Event: lock.Event{Kind: kind, Resource: lock.Resource(detail), At: now}}) {
		w.dropped.Add(1)
	}
}

// push enqueues one record, reporting whether the ring took it.
func (w *Writer) push(rec Record) bool {
	if w.writeErr.Load() != nil {
		return false
	}
	pos, ok := w.ring.reserve(1)
	if ok {
		w.ring.slots[pos&w.ring.mask].rec = rec
		w.ring.publish(pos)
		w.accepted.Add(1)
		w.wake(pos, 1)
	}
	return ok
}

// wake rouses the writer goroutine after records [pos, pos+n) went in. While
// it polls that is one atomic load; once it parked, the first producer sends.
// And a starved goroutine must not cost records: on a busy host it can wait
// a scheduler quantum for a processor, longer than the ring lasts at a few
// hundred thousand records a second. So a producer that finds the ring half
// full (looked at once per 64 positions, on the slot half a ring ahead)
// sends too, which queues the goroutine on this processor, and yields to it;
// it resumes when the drain — memory speed, no fsync — is over.
func (w *Writer) wake(pos, n uint64) {
	ahead := pos + (w.ring.mask+1)/2
	crowded := (pos^(pos+n))>>6 != 0 && w.ring.slots[ahead&w.ring.mask].seq.Load() < ahead
	if crowded || (w.parked.Load() && w.parked.CompareAndSwap(true, false)) {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
	if crowded {
		runtime.Gosched()
	}
}

func (w *Writer) failed() error {
	if p := w.writeErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (w *Writer) fail(err error) { w.writeErr.CompareAndSwap(nil, &err) }

// Offset is the journal position for incident correlation: the number of
// records accepted so far. A record enqueued before Offset was read has
// Seq ≤ Offset once persisted (drops only widen the bound), so replaying
// "Seq ≤ offset" reconstructs everything up to the correlated moment.
func (w *Writer) Offset() uint64 { return w.accepted.Load() }

// Dropped returns the events dropped since open.
func (w *Writer) Dropped() uint64 { return w.dropped.Load() }

// Records returns the records persisted to disk so far.
func (w *Writer) Records() uint64 { return w.written.Load() }

// Flush forces buffered bytes to disk and returns the first write error.
func (w *Writer) Flush() error {
	w.foldHits(time.Now())
	ch := make(chan error, 1)
	select {
	case w.flushCh <- ch:
		return <-ch
	case <-w.stopped:
		return w.failed()
	}
}

// Close drains the ring, flushes, and closes the current segment.
func (w *Writer) Close() error {
	w.once.Do(func() {
		w.foldHits(time.Now())
		close(w.done)
	})
	<-w.stopped
	return w.failed()
}

// run is the writer goroutine: drain, flush on a timer, exit on Close after
// a final drain. After a drain that found records it looks again in
// drainPause without parking — producers then skip the wake-up — and only a
// drain that found nothing parks it until the next record's wake-up.
func (w *Writer) run() {
	defer close(w.stopped)
	ticker := time.NewTicker(flushEvery)
	defer ticker.Stop()
	// poll is stopped and drained at every Reset below.
	poll := time.NewTimer(time.Hour)
	if !poll.Stop() {
		<-poll.C
	}
	defer poll.Stop()
	for {
		polling := w.drain() > 0
		if polling {
			poll.Reset(drainPause)
		} else {
			w.parked.Store(true)
			if w.ring.pending() { // published between the drain and the flag
				w.parked.Store(false)
				continue
			}
		}
		fired := false
		select {
		case <-w.notify:
		case <-poll.C:
			fired = true
		case ch := <-w.flushCh:
			w.drain()
			ch <- w.flush()
		case <-ticker.C:
			_ = w.flush() // the failure is sticky: Flush, Close and Status report it
		case <-w.done:
			w.drain()
			err := w.flush()
			if w.f != nil {
				if cerr := w.f.Close(); err == nil && cerr != nil {
					err = cerr
				}
				w.f = nil
			}
			if err != nil {
				w.fail(err)
			}
			return
		}
		w.parked.Store(false)
		if polling && !fired && !poll.Stop() {
			<-poll.C
		}
	}
}

// drain writes every record in the ring, rotating segments as they fill, and
// returns how many it took out.
func (w *Writer) drain() int {
	n := 0
	written := w.written.Load()
	for {
		rec, ok := w.ring.pop()
		if !ok {
			break
		}
		n++
		if w.enc == nil {
			continue // sticky failure: discard
		}
		rec.Seq = written + 1
		if err := w.enc.writeRecord(rec); err != nil {
			w.fail(err)
			w.enc = nil
			continue
		}
		written++
		if w.enc.n >= w.maxSegment {
			if err := w.rotate(); err != nil {
				w.fail(err)
				w.enc = nil
			}
		}
	}
	if n > 0 {
		w.written.Store(written)
		if w.enc != nil {
			w.bytes.Store(w.closedBytes + w.enc.n)
		}
	}
	return n
}

func (w *Writer) flush() error {
	if w.bw == nil {
		return w.failed()
	}
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return err
	}
	return nil
}

// rotate closes the current segment and opens the next one.
func (w *Writer) rotate() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	w.closedBytes += w.enc.n
	return w.openSegment(w.curSeg.Load() + 1)
}

// openSegment creates segment file seq and resets the interning tables.
func (w *Writer) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	enc := w.enc
	if enc == nil {
		enc, err = newSegmentEncoder(bw)
	} else {
		err = enc.reset(bw) // the tables keep their memory across segments
	}
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.bw, w.enc = f, bw, enc
	w.curSeg.Store(seq)
	w.segments.Add(1)
	w.bytes.Store(w.closedBytes + enc.n)
	return nil
}

// Status is the journal's live state, served on /journal/status.
type Status struct {
	Dir      string `json:"dir"`
	Segment  uint64 `json:"segment"`  // current segment sequence number
	Segments uint64 `json:"segments"` // segment files (pre-existing included)
	Records  uint64 `json:"records"`  // persisted records
	Accepted uint64 `json:"accepted"` // records accepted into the ring
	Dropped  uint64 `json:"dropped"`
	Bytes    int64  `json:"bytes"`
	Error    string `json:"error,omitempty"`
}

// Status snapshots the writer's counters.
func (w *Writer) Status() Status {
	st := Status{
		Dir:      w.dir,
		Segment:  w.curSeg.Load(),
		Segments: w.segments.Load(),
		Records:  w.written.Load(),
		Accepted: w.accepted.Load(),
		Dropped:  w.dropped.Load(),
		Bytes:    w.bytes.Load(),
	}
	if err := w.failed(); err != nil {
		st.Error = err.Error()
	}
	return st
}

// WriteMetrics appends the journal counters in Prometheus text format; the
// engine's /metrics (engine.Engine.Handler) writes them when a journal is
// attached.
func (w *Writer) WriteMetrics(out io.Writer) {
	st := w.Status()
	fmt.Fprintf(out, "# HELP colock_journal_records_total Lock events persisted to the journal.\n")
	fmt.Fprintf(out, "# TYPE colock_journal_records_total counter\n")
	fmt.Fprintf(out, "colock_journal_records_total %d\n", st.Records)
	fmt.Fprintf(out, "# HELP colock_journal_dropped_total Lock events dropped by the journal's bounded ring.\n")
	fmt.Fprintf(out, "# TYPE colock_journal_dropped_total counter\n")
	fmt.Fprintf(out, "colock_journal_dropped_total %d\n", st.Dropped)
	fmt.Fprintf(out, "# HELP colock_journal_bytes_total Bytes written across all journal segments.\n")
	fmt.Fprintf(out, "# TYPE colock_journal_bytes_total counter\n")
	fmt.Fprintf(out, "colock_journal_bytes_total %d\n", st.Bytes)
	fmt.Fprintf(out, "# HELP colock_journal_segments Journal segment files on disk.\n")
	fmt.Fprintf(out, "# TYPE colock_journal_segments gauge\n")
	fmt.Fprintf(out, "colock_journal_segments %d\n", st.Segments)
}
