package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// Span names. Spans are recorded by the harness only, around its calls
// into each layer; nothing inside the program is instrumented.
const (
	spanTxn uint8 = iota
	spanBegin
	spanLock
	spanCommit
	spanCutNamer
	spanCutEntryScan
	spanCutLock
	spanCutProtocol
	spanCutTxn
	spanCutObserved
	spanCutRecorder
	spanCutSinkCollector
	spanCutSinkJournal
	spanCutSinkProfile
	spanCutSinkIncident
	spanCutSinkMonitor
	spanCutWire
	spanCutSocket
	spanCutNet
)

var spanNames = [...]string{
	spanTxn:              "txn",
	spanBegin:            "begin",
	spanLock:             "lock",
	spanCommit:           "commit",
	spanCutNamer:         "cut.namer",
	spanCutEntryScan:     "cut.entry_scan",
	spanCutLock:          "cut.lock",
	spanCutProtocol:      "cut.protocol",
	spanCutTxn:           "cut.txn",
	spanCutObserved:      "cut.observed",
	spanCutRecorder:      "cut.recorder",
	spanCutSinkCollector: "cut.sink.collector",
	spanCutSinkJournal:   "cut.sink.journal",
	spanCutSinkProfile:   "cut.sink.profile",
	spanCutSinkIncident:  "cut.sink.incident",
	spanCutSinkMonitor:   "cut.sink.monitor",
	spanCutWire:          "cut.wire",
	spanCutSocket:        "cut.socket",
	spanCutNet:           "cut.net",
}

// span is one timed interval. All spans of one transaction share the
// script id; parent is the id of the span that caused this one (0: none).
type span struct {
	name       uint8
	script     uint32
	parent     int32
	start, end int64 // ns since the buffer's epoch
}

// spanBuf keeps spans in memory, preallocated; a full buffer drops new
// spans rather than grow inside a timed region. One buffer belongs to one
// goroutine.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newSpanBuf(epoch time.Time, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

func (b *spanBuf) full() bool { return len(b.spans) == cap(b.spans) }

// open starts a span and returns its id (0 when the buffer is full).
func (b *spanBuf) open(name uint8, script uint32, parent int32) int32 {
	if b.full() {
		b.dropped++
		return 0
	}
	b.spans = append(b.spans, span{name: name, script: script, parent: parent, start: b.now()})
	return int32(len(b.spans))
}

func (b *spanBuf) close(id int32) {
	if id > 0 {
		b.spans[id-1].end = b.now()
	}
}

// add records a finished span that started at start and ends now.
func (b *spanBuf) add(name uint8, script uint32, parent int32, start int64) {
	b.record(name, script, parent, start, b.now())
}

func (b *spanBuf) record(name uint8, script uint32, parent int32, start, end int64) {
	if b.full() {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{name: name, script: script, parent: parent, start: start, end: end})
}

// durations returns the durations, in µs, of every span with the name.
func (b *spanBuf) durations(name uint8) []float64 {
	var out []float64
	for i := range b.spans {
		if s := &b.spans[i]; s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// writeSpans writes the buffers as one JSONL file, one span per line. Ids
// are renumbered so they stay unique across buffers.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	base := int64(0)
	for _, b := range bufs {
		for i := range b.spans {
			s := &b.spans[i]
			parent := int64(0)
			if s.parent > 0 {
				parent = base + int64(s.parent)
			}
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendInt(line, base+int64(i)+1, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, parent, 10)
			line = append(line, `,"name":"`...)
			line = append(line, spanNames[s.name]...)
			line = append(line, `","script":`...)
			line = strconv.AppendUint(line, uint64(s.script), 10)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
		base += int64(len(b.spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
