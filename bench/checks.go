package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"colock/internal/core"
	"colock/internal/journal"
	"colock/internal/lock"
)

// snapshot is every cumulative counter the report takes deltas of, read
// from the layers' public surfaces and the Go runtime.
type snapshot struct {
	cpu      time.Duration
	mallocs  uint64
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
	lock     lock.Stats
	proto    core.ProtocolStats
	journal  journal.Status

	framesRead, framesWritten uint64
}

func takeSnapshot(e *engine) (*snapshot, error) {
	s := &snapshot{lock: e.mgr.Stats(), proto: e.proto.Stats()}
	var err error
	if s.cpu, err = cpuTime(); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.gcCycles = ms.Mallocs, uint64(ms.NumGC)
	sample := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 && sample[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = sample[0].Value.Float64(), sample[1].Value.Float64()
	}
	if e.obs != nil {
		s.journal = e.obs.jw.Status()
	}
	if e.srv != nil {
		// The server publishes its frame counters only as Prometheus text.
		var buf bytes.Buffer
		e.srv.WriteMetrics(&buf)
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") {
				continue
			}
			n, _ := strconv.ParseUint(val, 10, 64)
			switch name {
			case "colock_server_frames_read_total":
				s.framesRead = n
			case "colock_server_frames_written_total":
				s.framesWritten = n
			}
		}
	}
	return s, nil
}

// Per-transaction manager counts of a cell edit on disjoint data; see
// genScripts for why they are exact.
const (
	pinGrants       = 16
	pinRequests     = 22
	pinFastPathHits = 38
	pinEntryScans   = 10
)

// check runs the output checks that read the window's counters.
func (r *report) check(w *windowResult, s0, s1 *snapshot) {
	if w.attempted != w.commits+w.failed {
		r.failf("attempted %d != commits %d + failed %d", w.attempted, w.commits, w.failed)
	}
	if w.failed != 0 {
		r.failf("%d transactions failed", w.failed)
	}
	if w.commits == 0 {
		r.failf("no transaction committed")
	}
	if d := s1.lock.Deadlocks; d != 0 {
		r.failf("lock.deadlocks = %d, want 0", d)
	}
	if w.begins != w.commits {
		r.failf("attempts_per_commit: %d begins for %d commits, want equal", w.begins, w.commits)
	}
	if r.cfg.spec.shared {
		if w.violations != 0 {
			r.failf("exclusion witness saw %d violations", w.violations)
		}
		return
	}
	ls := s1.lock.Sub(s0.lock)
	for _, p := range []struct {
		name      string
		got, want uint64
	}{
		{"manager grants", ls.Grants, pinGrants},
		{"manager requests", ls.Requests, pinRequests},
		{"fast-path hits", s1.proto.FastPathHits - s0.proto.FastPathHits, pinFastPathHits},
		{"entry-point scans", s1.proto.EntryPointScans - s0.proto.EntryPointScans, pinEntryScans},
	} {
		if p.got != p.want*w.commits {
			r.failf("%s: %d over %d commits, want exactly %d per transaction", p.name, p.got, w.commits, p.want)
		}
	}
}

// finish stops the engine and runs the exit checks: nothing left locked or
// active, the server's sessions gone, the journal readable and complete.
func (r *report) finish(e *engine) error {
	if n := e.mgr.LockCount(); n != 0 {
		r.failf("lock table holds %d entries at exit", n)
	}
	if n := e.tm.ActiveCount(); n != 0 {
		r.failf("%d transactions still active at exit", n)
	}
	if err := e.close(true); err != nil {
		r.failf("engine close: %v", err)
	}
	if e.obs == nil {
		return nil
	}
	defer os.RemoveAll(e.journalDir)
	st := e.obs.jw.Status()
	if st.Error != "" {
		r.failf("journal writer: %s", st.Error)
	}
	rd, err := journal.OpenDir(e.journalDir)
	if err != nil {
		return err
	}
	defer rd.Close()
	var n uint64
	for {
		_, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.failf("journal re-read: record %d: %v", n+1, err)
			break
		}
		n++
	}
	if rd.Torn() {
		r.failf("journal re-read: torn tail: %v", rd.TornErr())
	}
	// Accepted counts events taken into the ring; dropped ones never are.
	if n != st.Accepted {
		r.failf("journal re-read: %d records, want %d accepted (%d more dropped)", n, st.Accepted, st.Dropped)
	}
	return nil
}

// tracedRun is the --trace 1 run: an untraced window for the counts, a
// traced window for the spans, then the layer cuts. Spans stay in memory
// and are written as JSONL when everything timed is over.
func tracedRun(cfg config, e *engine, clients []*clientState, r *report) error {
	untraced := time.Duration(cfg.seconds * 0.6 * float64(time.Second))
	traced := time.Duration(cfg.seconds * 0.2 * float64(time.Second))

	if err := r.measure(e, clients, untraced); err != nil {
		return err
	}

	epoch := time.Now()
	bufs := make([]*spanBuf, len(clients))
	perClient := cfg.tracedTxns / len(clients)
	for i, c := range clients {
		bufs[i] = newSpanBuf(epoch, perClient*spansPerTxn)
		c.spans = bufs[i]
	}
	tw := runWindow(clients, uint64(perClient), traced)
	for _, c := range clients {
		c.spans = nil
	}
	if tw.failed != 0 {
		r.failf("traced window: %d transactions failed", tw.failed)
	}
	r.attempted += tw.attempted
	r.failed += tw.failed
	r.values["trace.overhead_ratio"] = ratio(ratio(float64(tw.commits), tw.elapsed.Seconds()), r.values["txn_per_s"])
	r.values["trace.txn_span_p50_us"] = median(allDurations(bufs, spanTxn))
	if cfg.spec.net {
		r.values["net.begin_rtt_p50_us"] = median(allDurations(bufs, spanBegin))
		r.values["net.lock_rtt_p50_us"] = median(allDurations(bufs, spanLock))
		r.values["net.commit_rtt_p50_us"] = median(allDurations(bufs, spanCommit))
	}

	cutSpans := newSpanBuf(epoch, 16*cfg.ring)
	cuts, err := layerCuts(e, clients[0], cutSpans, cfg.workdir)
	if err != nil {
		return err
	}
	for k, v := range cuts {
		r.values[k] = v
	}
	for _, b := range append(bufs, cutSpans) {
		if b.dropped != 0 {
			r.failf("span buffer dropped %d spans", b.dropped)
		}
	}
	if err := os.MkdirAll(filepath.Dir(spanFile(cfg)), 0o755); err != nil {
		return err
	}
	if err := writeSpans(spanFile(cfg), append(bufs, cutSpans)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func allDurations(bufs []*spanBuf, name uint8) []float64 {
	var out []float64
	for _, b := range bufs {
		out = append(out, b.durations(name)...)
	}
	return out
}
