package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"colock/internal/core"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/trace"
	"colock/internal/wire"
)

// The traced run times each layer alone by replaying client 0's script
// ring at successive cuts through the stack. A layer's self time is its
// cut minus the cuts it contains; each number is a median per transaction
// over one replay of the whole ring.
//
// The cuts run interleaved, not one after another: at every step each cut
// replays one script, so a garbage collection or a noisy neighbour slows
// all cuts alike and the subtraction stays meaningful. Each cut is offset
// into the ring by its own stride, so a script's data is as cold when a
// cut reaches it as it is for the driver, which also cycles the whole ring.

// cutTxnBase keeps harness-made transaction ids clear of the ids
// txn.Manager hands out.
const cutTxnBase = lock.TxnID(1) << 48

// maxEventSample is how many scripts keep their captured event stream for
// the sink cuts (152 bytes an event; the whole ring would be 48 MB).
const maxEventSample = 1024

type cutDef struct {
	span uint8
	prep func(i int) // runs before each replay, outside its timed region
	fn   func(i int, s *script) error
}

// runCuts replays the ring twice through every cut, the first pass
// untimed, and stores each cut's median µs per transaction in us, keyed by
// the cut's span name.
func runCuts(spans *spanBuf, ring []script, defs []cutDef, us map[uint8]float64) error {
	n := len(ring)
	stride := n / len(defs)
	durs := make([][]float64, len(defs))
	for k := range durs {
		durs[k] = make([]float64, 0, n)
	}
	for pass := 0; pass < 2; pass++ {
		for step := 0; step < n; step++ {
			for k := range defs {
				i := (step + k*stride) % n
				if defs[k].prep != nil {
					defs[k].prep(i)
				}
				t0 := spans.now()
				err := defs[k].fn(i, &ring[i])
				t1 := spans.now()
				if err != nil {
					return fmt.Errorf("%s: script %d: %w", spanNames[defs[k].span], ring[i].id, err)
				}
				if pass == 1 {
					spans.record(defs[k].span, ring[i].id, 0, t0, t1)
					durs[k] = append(durs[k], float64(t1-t0)/1e3)
				}
			}
		}
	}
	for k := range defs {
		us[defs[k].span] = median(durs[k])
	}
	return nil
}

// allocsPerTxn counts mallocs per replay of one cut alone, over 512
// scripts. (Interleaved cuts cannot be told apart in runtime.MemStats.)
func allocsPerTxn(ring []script, d cutDef) (float64, error) {
	n := min(512, len(ring))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := d.fn(i, &ring[i]); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// embedded replays a script through a txn.Manager, the embedded path.
// begin and commit, when non-nil, collect the durations of the two calls.
func embedded(e *engine, s *script, begin, commit *[]float64) error {
	t0 := time.Now()
	t, err := e.tm.BeginCtx(context.Background())
	if err != nil {
		return err
	}
	t1 := time.Now()
	for i := range s.ops {
		if err := t.LockPath(context.Background(), s.ops[i].path, s.ops[i].mode); err != nil {
			t.Abort()
			return err
		}
	}
	t2 := time.Now()
	err = t.Commit()
	if begin != nil {
		*begin = append(*begin, float64(t1.Sub(t0))/1e3)
		*commit = append(*commit, float64(time.Since(t2))/1e3)
	}
	return err
}

// capture is what one script makes the lock manager do, recorded once
// through a lock.EventSink on a scratch engine.
type capture struct {
	steps  [][]lock.BatchReq // one AcquireBatch (intention chain) or AcquireCtx each
	hits   int               // grant-cache hits, invisible to the manager's sinks
	events []lock.Event      // kept for the first maxEventSample scripts only
}

type eventLog struct{ events []lock.Event }

func (l *eventLog) Record(e lock.Event) { l.events = append(l.events, e) }

// captureScripts runs each script once on a scratch engine and derives the
// manager request sequence from its grant and convert events: a run of
// intention modes is one upward batch, the S or X that ends it is the
// node's own acquire. (Requests the manager answers as regrants emit no
// event and are not replayed.)
func captureScripts(e *engine, ring []script) ([]capture, error) {
	log := &eventLog{}
	scratch := bareEngine(e.st, e.spec.shared, lock.Options{Sinks: []lock.EventSink{log}}, nil)
	defer scratch.mgr.Close()
	hits := 0
	scratch.proto.OnFastPathHit(func() { hits++ })
	out := make([]capture, len(ring))
	for i := range ring {
		log.events, hits = log.events[:0], 0
		if err := embedded(scratch, &ring[i], nil, nil); err != nil {
			return nil, fmt.Errorf("capture script %d: %w", ring[i].id, err)
		}
		out[i].hits = hits
		if e.spec.sinks && i < maxEventSample {
			out[i].events = append([]lock.Event(nil), log.events...)
		}
		var batch []lock.BatchReq
		for _, ev := range log.events {
			if ev.Kind != "grant" && ev.Kind != "convert" {
				continue
			}
			batch = append(batch, lock.BatchReq{Resource: ev.Resource, Mode: ev.Mode})
			if !ev.Mode.IsIntention() {
				if n := len(batch); n > 1 {
					out[i].steps = append(out[i].steps, batch[:n-1:n-1])
				}
				out[i].steps = append(out[i].steps, batch[len(batch)-1:])
				batch = nil
			}
		}
		if len(batch) > 0 {
			out[i].steps = append(out[i].steps, batch)
		}
	}
	return out, nil
}

// layerCuts runs every cut that applies to the workload and returns the
// per-layer timings by metric name.
func layerCuts(e *engine, cl *clientState, spans *spanBuf, workdir string) (m map[string]float64, err error) {
	ring := cl.ring
	caps, err := captureScripts(e, ring)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var nextID lock.TxnID
	txnID := func() lock.TxnID {
		nextID++
		return cutTxnBase + nextID
	}
	var cleanup []func() error
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			err = errors.Join(err, cleanup[i]())
		}
	}()
	closeMgr := func(mgr *lock.Manager) func() error {
		return func() error { mgr.Close(); return nil }
	}

	// core naming: the two cached lookups Protocol makes per lock call.
	namer := cutDef{span: spanCutNamer, fn: func(_ int, s *script) error {
		for i := range s.ops {
			if _, err := e.nm.Classify(s.ops[i].path); err != nil {
				return err
			}
			if _, err := e.nm.Resource(core.DataNode(s.ops[i].path)); err != nil {
				return err
			}
		}
		return nil
	}}
	// The downward scan of rules 3/4: the node, then each entry point found.
	scan := cutDef{span: spanCutEntryScan, fn: func(_ int, s *script) error {
		for i := range s.ops {
			eps, err := core.EntryPointsUnder(e.st, e.nm, core.DataNode(s.ops[i].path))
			if err != nil {
				return err
			}
			for _, ep := range eps {
				if _, err := core.EntryPointsUnder(e.st, e.nm, core.DataNode(ep)); err != nil {
					return err
				}
			}
		}
		return nil
	}}
	// lock: the captured request sequence on a bare manager.
	bareMgr := lock.NewManager(lock.Options{})
	cleanup = append(cleanup, closeMgr(bareMgr))
	lk := cutDef{span: spanCutLock, fn: func(i int, _ *script) error {
		id := txnID()
		for _, step := range caps[i].steps {
			var err error
			if len(step) == 1 && !step[0].Mode.IsIntention() {
				err = bareMgr.AcquireCtx(ctx, id, step[0].Resource, step[0].Mode)
			} else {
				err = bareMgr.AcquireBatch(ctx, id, step)
			}
			if err != nil {
				return err
			}
		}
		bareMgr.ReleaseAll(id)
		return nil
	}}
	// The sink-less embedded stack: the workload's own engine, except on
	// observed_disjoint, whose engine carries the sinks.
	bare := e
	if e.spec.sinks {
		bare = bareEngine(e.st, false, lock.Options{}, nil)
		cleanup = append(cleanup, closeMgr(bare.mgr))
	}
	proto := cutDef{span: spanCutProtocol, fn: func(_ int, s *script) error {
		id := txnID()
		defer bare.proto.Release(id)
		for i := range s.ops {
			if err := bare.proto.LockWith(ctx, id, core.DataNode(s.ops[i].path), s.ops[i].mode, false, false, 0); err != nil {
				return err
			}
		}
		return nil
	}}
	var begins, commits []float64
	tx := cutDef{span: spanCutTxn, fn: func(_ int, s *script) error {
		return embedded(bare, s, &begins, &commits)
	}}
	defs := []cutDef{namer, scan, lk, proto, tx}

	var sinks []sinkCut
	if e.spec.sinks {
		recEng := bareEngine(e.st, false, lock.Options{}, trace.NewRecorder(trace.Options{ShardOf: bare.mgr.ShardOf}))
		cleanup = append(cleanup, closeMgr(recEng.mgr))
		defs = append(defs,
			cutDef{span: spanCutObserved, fn: func(_ int, s *script) error { return embedded(e, s, nil, nil) }},
			cutDef{span: spanCutRecorder, fn: func(_ int, s *script) error { return embedded(recEng, s, nil, nil) }})
		var closeSinks func() error
		if sinks, closeSinks, err = newSinkCuts(e, bare.mgr, caps, workdir); err != nil {
			return nil, err
		}
		cleanup = append(cleanup, closeSinks)
		for _, sk := range sinks {
			defs = append(defs, sk.def)
		}
	}
	var nc *netCutState
	if e.spec.net {
		if nc, err = newNetCuts(cl); err != nil {
			return nil, err
		}
		cleanup = append(cleanup, nc.close)
		defs = append(defs, nc.wire)
	}

	us := map[uint8]float64{}
	if err := runCuts(spans, ring, defs, us); err != nil {
		return nil, err
	}
	if e.spec.net {
		// A round trip's cost depends on both ends still being awake from
		// the last one, so the two cuts that cross the socket run back to
		// back, as the driver does, each in a loop of its own.
		for _, d := range []cutDef{nc.socket, nc.net} {
			if err := runCuts(spans, ring, []cutDef{d}, us); err != nil {
				return nil, err
			}
		}
	}
	txnUs := us[spanCutTxn]
	m = map[string]float64{
		"core.namer_us_per_txn":         us[spanCutNamer],
		"core.entry_scan_us_per_txn":    us[spanCutEntryScan],
		"lock.us_per_txn":               us[spanCutLock],
		"core.protocol_self_us_per_txn": us[spanCutProtocol] - us[spanCutNamer] - us[spanCutEntryScan] - us[spanCutLock],
		"txn.self_us_per_txn":           txnUs - us[spanCutProtocol],
		"txn.begin_us":                  median(begins[len(begins)-len(ring):]),
		"txn.commit_us":                 median(commits[len(commits)-len(ring):]),
		"cut.txn_us":                    txnUs,
	}
	if m["core.namer_allocs_per_txn"], err = allocsPerTxn(ring, namer); err != nil {
		return nil, err
	}
	if m["lock.allocs_per_txn"], err = allocsPerTxn(ring, lk); err != nil {
		return nil, err
	}
	if e.spec.sinks {
		recorder := us[spanCutRecorder] - txnUs
		total := us[spanCutObserved] - txnUs
		sum, events := recorder, 0
		for _, sk := range sinks {
			m[sk.metric] = us[sk.def.span]
			sum += us[sk.def.span]
		}
		sampled := caps[:min(maxEventSample, len(caps))]
		for _, cp := range sampled {
			events += len(cp.events) + cp.hits
		}
		m["trace.recorder_us_per_txn"] = recorder
		m["sinks.total_us_per_txn"] = total
		m["sinks.unattributed_us_per_txn"] = total - sum
		m["sinks.events_per_txn"] = float64(events) / float64(len(sampled))
		m["cut.observed_us"] = us[spanCutObserved]
	}
	if e.spec.net {
		m["wire.codec_us_per_txn"] = us[spanCutWire]
		m["wire.bytes_per_txn"] = float64(nc.wireBytes) / float64(nc.wireTxns)
		m["net.socket_us_per_txn"] = us[spanCutSocket]
		m["net.dispatch_self_us_per_txn"] = us[spanCutNet] - txnUs - us[spanCutWire] - us[spanCutSocket]
		m["cut.net_us"] = us[spanCutNet]
		if m["wire.allocs_per_txn"], err = allocsPerTxn(ring, nc.wire); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// sinkCut feeds one fresh event sink the captured event stream, alone.
type sinkCut struct {
	metric string
	def    cutDef
}

// newSinkCuts builds one cut per event sink of the observed wiring. The
// sinks route by Event.At, and the capture's stale stamps would take their
// out-of-window path, so each replay gets a freshly stamped copy.
func newSinkCuts(e *engine, mgr *lock.Manager, caps []capture, workdir string) ([]sinkCut, func() error, error) {
	jdir, err := os.MkdirTemp(workdir, "cutjournal-")
	if err != nil {
		return nil, nil, err
	}
	idir, err := os.MkdirTemp(workdir, "cutincidents-")
	if err != nil {
		return nil, nil, err
	}
	jw, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return nil, nil, err
	}
	closeAll := func() error {
		return errors.Join(jw.Close(), os.RemoveAll(jdir), os.RemoveAll(idir))
	}
	mon := newMonitor(mgr)
	sampled := caps[:min(maxEventSample, len(caps))]
	var scratch []lock.Event
	prep := func(i int) {
		scratch = append(scratch[:0], sampled[i%len(sampled)].events...)
		now := time.Now()
		for k := range scratch {
			scratch[k].At = now
		}
	}
	mk := func(span uint8, metric string, sink lock.EventSink, hit func()) sinkCut {
		return sinkCut{metric: metric, def: cutDef{span: span, prep: prep, fn: func(i int, _ *script) error {
			for _, ev := range scratch {
				sink.Record(ev)
			}
			if hit != nil { // the sink's share of the fast-path hook
				for k := 0; k < sampled[i%len(sampled)].hits; k++ {
					hit()
				}
			}
			return nil
		}}}
	}
	return []sinkCut{
		mk(spanCutSinkCollector, "obs.collector_us_per_txn",
			obs.NewCollector(obs.Options{KindLabels: core.UnitKindLabels, KindOf: core.UnitKindOf(e.nm)}), nil),
		mk(spanCutSinkJournal, "journal.writer_us_per_txn", jw, jw.RecordFastPathHit),
		mk(spanCutSinkProfile, "trace.profile_us_per_txn", trace.NewProfile(), nil),
		mk(spanCutSinkIncident, "trace.incident_us_per_txn",
			trace.NewIncidentWriter(idir, trace.NewRecorder(trace.Options{}), mgr, trace.IncidentOptions{}), nil),
		mk(spanCutSinkMonitor, "health.monitor_us_per_txn", mon, mon.RecordFastPathHit),
	}, closeAll, nil
}

// netCutState holds the three network cuts: the wire codec in memory,
// same-sized frames against a harness echo server on loopback, and the
// whole network path.
type netCutState struct {
	wire, socket, net cutDef

	buf       bytes.Buffer
	sizes     [][]int // per script: the 24 frame lengths the codec produced
	wireBytes int
	wireTxns  int

	ln   net.Listener
	conn net.Conn
	done chan error
}

func newNetCuts(cl *clientState) (*netCutState, error) {
	nc := &netCutState{sizes: make([][]int, len(cl.ring)), done: make(chan error, 1)}
	nc.wire = cutDef{span: spanCutWire, fn: nc.wireTxn}
	nc.net = cutDef{span: spanCutNet, fn: func(_ int, s *script) error {
		// The driver's own call sequence, through client.Dial's session.
		return cl.attempt(s)
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nc.ln = ln
	go nc.echo()
	if nc.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		return nil, err
	}
	// Each round trip writes a request-sized buffer whose first four bytes
	// carry its own and the reply's length, and reads the reply: two
	// goroutines, one connection, no colock code.
	out := make([]byte, 4096)
	// It runs after the wire cut, which sized every script's frames.
	nc.socket = cutDef{span: spanCutSocket, fn: func(i int, _ *script) error {
		sz := nc.sizes[i]
		for k := 0; k+1 < len(sz); k += 2 {
			binary.BigEndian.PutUint16(out[0:2], uint16(sz[k]))
			binary.BigEndian.PutUint16(out[2:4], uint16(sz[k+1]))
			if _, err := nc.conn.Write(out[:sz[k]]); err != nil {
				return err
			}
			if _, err := io.ReadFull(nc.conn, out[:sz[k+1]]); err != nil {
				return err
			}
		}
		return nil
	}}
	return nc, nil
}

func (nc *netCutState) echo() {
	conn, err := nc.ln.Accept()
	if err != nil {
		nc.done <- err
		return
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	for {
		if _, err := io.ReadFull(conn, buf[:4]); err != nil {
			if err == io.EOF {
				err = nil
			}
			nc.done <- err
			return
		}
		req := int(binary.BigEndian.Uint16(buf[0:2]))
		reply := int(binary.BigEndian.Uint16(buf[2:4]))
		if _, err := io.ReadFull(conn, buf[4:req]); err != nil {
			nc.done <- err
			return
		}
		if _, err := conn.Write(buf[:reply]); err != nil {
			nc.done <- err
			return
		}
	}
}

// close stops the echo server and waits for its goroutine.
func (nc *netCutState) close() error {
	err := nc.conn.Close()
	err = errors.Join(err, <-nc.done)
	return errors.Join(err, nc.ln.Close())
}

// frame writes one frame into the buffer and reads it back.
func (nc *netCutState) frame(i int, typ byte, payload []byte) (wire.Frame, error) {
	n := nc.buf.Len()
	if err := wire.WriteFrame(&nc.buf, typ, 1, payload); err != nil {
		return wire.Frame{}, err
	}
	if len(nc.sizes[i]) < 24 {
		nc.sizes[i] = append(nc.sizes[i], nc.buf.Len()-n)
	}
	nc.wireBytes += nc.buf.Len() - n
	return wire.ReadFrame(&nc.buf)
}

// wireTxn is cut.wire: the transaction's 24 frames through Encode,
// WriteFrame, ReadFrame and Decode on a bytes.Buffer.
func (nc *netCutState) wireTxn(i int, s *script) error {
	nc.buf.Reset()
	nc.wireTxns++
	const id = uint64(cutTxnBase)
	f, err := nc.frame(i, wire.TBegin, wire.BeginReq{}.Encode())
	if err != nil {
		return err
	}
	if _, err := wire.DecodeBeginReq(f.Payload); err != nil {
		return err
	}
	if f, err = nc.frame(i, wire.TTxn, wire.TxnReply{Txn: id}.Encode()); err != nil {
		return err
	}
	if _, err := wire.DecodeTxnReply(f.Payload); err != nil {
		return err
	}
	for k := range s.ops {
		req := wire.LockReq{Txn: id, Node: wire.NodeRef{Level: wire.NodePath, Path: s.ops[k].path}, Mode: s.ops[k].mode}
		if f, err = nc.frame(i, wire.TLockPath, req.Encode()); err != nil {
			return err
		}
		if _, err := wire.DecodeLockReq(f.Payload); err != nil {
			return err
		}
		if _, err = nc.frame(i, wire.TOK, nil); err != nil {
			return err
		}
	}
	if f, err = nc.frame(i, wire.TCommit, wire.TxnReq{Txn: id}.Encode()); err != nil {
		return err
	}
	if _, err := wire.DecodeTxnReq(f.Payload); err != nil {
		return err
	}
	_, err = nc.frame(i, wire.TOK, nil)
	return err
}
