package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"colock/client"
	"colock/internal/authz"
	"colock/internal/core"
	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/server"
	"colock/internal/store"
	"colock/internal/trace"
	"colock/internal/txn"
	"colock/internal/workload"
)

// workloadSpec is one row of the workload table. Names are final: later
// issues cite them.
type workloadSpec struct {
	name    string
	clients int
	shared  bool // non-disjoint database, rule 4′, librarians
	sinks   bool // wired like cmd/colockd -journal
	net     bool // through client → loopback TCP → server
	warmup  int  // fixed-count warm-up, part of set-up
}

var workloads = []workloadSpec{
	{name: "embed_disjoint", clients: 1, warmup: 20000},
	// 5,000, not 20,000: at ≈6.5k txn/s three rounds of 20,000 would make
	// set-up alone 10 s of every run.
	{name: "observed_disjoint", clients: 1, sinks: true, warmup: 5000},
	{name: "embed_shared", clients: 2, shared: true, warmup: 20000},
	{name: "net_disjoint", clients: 1, net: true, warmup: 5000},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// observers are the event sinks of an engine wired like colockd.
type observers struct {
	col  *obs.Collector
	rec  *trace.Recorder
	prof *trace.Profile
	iw   *trace.IncidentWriter
	mon  *health.Monitor
	jw   *journal.Writer
}

// engine is the system under test: a store, the lock stack over it, and
// (per workload) the sinks and the network front end.
type engine struct {
	spec  workloadSpec
	st    *store.Store
	nm    *core.Namer
	mgr   *lock.Manager
	proto *core.Protocol
	tm    *txn.Manager

	obs        *observers
	journalDir string
	incidents  string

	srv *server.Server
	cl  *client.Client
}

func protoOptions(shared bool) core.Options {
	if shared {
		return core.Options{Rule4Prime: true, Authorizer: authz.DenyAll{}}
	}
	return core.Options{}
}

// newEngine generates the database from the seed and builds the stack the
// workload names. Temp directories go under workdir and are removed by
// close.
func newEngine(spec workloadSpec, seed int64, workdir string) (*engine, error) {
	st := workload.Generate(dbConfig(seed, !spec.shared))
	core.CollectStatistics(st)
	var e *engine
	if spec.sinks {
		e = &engine{st: st, nm: core.NewNamer(st.Catalog(), false)}
		if err := e.wireObserved(workdir); err != nil {
			return nil, err
		}
		e.tm = txn.NewManager(e.proto, st)
	} else {
		e = bareEngine(st, spec.shared, lock.Options{}, nil)
	}
	e.spec = spec
	if spec.net {
		e.srv = server.New(e.tm, server.Options{Lease: time.Minute})
		if err := e.srv.Serve("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		cl, err := client.Dial(e.srv.Addr(), client.Options{})
		if err != nil {
			_ = e.srv.Close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.cl = cl
	}
	return e, nil
}

// bareEngine is a sink-less embedded stack over an existing store: the
// engine of the workloads without sinks, and of the traced run's cuts.
func bareEngine(st *store.Store, shared bool, mopts lock.Options, tracer *trace.Recorder) *engine {
	e := &engine{st: st, nm: core.NewNamer(st.Catalog(), false)}
	e.mgr = lock.NewManager(mopts)
	po := protoOptions(shared)
	po.Tracer = tracer
	e.proto = core.NewProtocol(e.mgr, st, e.nm, po)
	e.tm = txn.NewManager(e.proto, st)
	return e
}

// wireObserved mirrors newService in cmd/colockd with -journal set: the
// same sinks, in the same attach order, with the same (default) sampling.
func (e *engine) wireObserved(workdir string) error {
	jdir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return err
	}
	idir, err := os.MkdirTemp(workdir, "incidents-")
	if err != nil {
		return err
	}
	e.journalDir, e.incidents = jdir, idir
	kindOf := core.UnitKindOf(e.nm)
	o := &observers{}
	o.col = obs.NewCollector(obs.Options{KindLabels: core.UnitKindLabels, KindOf: kindOf})
	e.mgr = lock.NewManager(lock.Options{Policy: lock.PolicyDetect, Sinks: []lock.EventSink{o.col}})
	o.rec = trace.NewRecorder(trace.Options{
		ShardOf: e.mgr.ShardOf,
		KindOf: func(r lock.Resource) string {
			if k := kindOf(r); k >= 0 && k < len(core.UnitKindLabels) {
				return core.UnitKindLabels[k]
			}
			return "other"
		},
	})
	o.jw, err = journal.Open(jdir, journal.Options{})
	if err != nil {
		return err
	}
	e.mgr.AttachSink(o.jw)
	o.prof = trace.NewProfile()
	o.iw = trace.NewIncidentWriter(idir, o.rec, e.mgr, trace.IncidentOptions{JournalOffset: o.jw.Offset})
	e.mgr.AttachSink(o.prof)
	e.mgr.AttachSink(o.iw)
	o.mon = newMonitor(e.mgr)
	e.mgr.AttachSink(o.mon)
	o.mon.OnTransition(func(tr health.Transition) {
		o.jw.Note("health", fmt.Sprintf("%s->%s %s", tr.From, tr.To, tr.Reason))
	})
	e.proto = core.NewProtocol(e.mgr, e.st, e.nm, core.Options{Tracer: o.rec})
	e.proto.OnFastPathHit(func() {
		o.mon.RecordFastPathHit()
		o.jw.RecordFastPathHit()
	})
	e.obs = o
	return nil
}

func newMonitor(mgr *lock.Manager) *health.Monitor {
	return health.NewMonitor(health.Options{
		Window: time.Second,
		Retain: 60,
		TopK:   32,
		SLO: health.SLO{
			MaxAbortRate:   0.05,
			MaxWaitP99:     250 * time.Millisecond,
			MaxWaiterDepth: 64,
		},
		WaiterDepth: mgr.WaitingTxns,
		GrantPath:   mgr.Stats,
	})
}

// sessions returns one session per client of the workload.
func (e *engine) sessions() []session {
	out := make([]session, e.spec.clients)
	for i := range out {
		if e.spec.net {
			out[i] = netSession{e.cl}
		} else {
			out[i] = embedSession{e.tm}
		}
	}
	return out
}

// close stops the engine: the client and server, the journal writer, the
// deadlock detector, and the temp directories. keepJournal leaves the
// journal directory for the caller to verify and remove.
func (e *engine) close(keepJournal bool) error {
	var errs []error
	if e.cl != nil {
		errs = append(errs, e.cl.Close())
	}
	if e.srv != nil {
		if err := waitSessionsGone(e.srv); err != nil {
			errs = append(errs, err)
		}
		errs = append(errs, e.srv.Close())
	}
	if e.obs != nil {
		errs = append(errs, e.obs.jw.Close())
		errs = append(errs, os.RemoveAll(e.incidents))
		if !keepJournal {
			errs = append(errs, os.RemoveAll(e.journalDir))
		}
	}
	e.mgr.Close()
	return errors.Join(errs...)
}

// waitSessionsGone is the net_disjoint exit check: after the client closes,
// the server's teardown must bring SessionCount back to 0.
func waitSessionsGone(srv *server.Server) error {
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("server still has %d sessions 5s after the client closed", srv.SessionCount())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// session and txnOps are the two calls the driver makes, embedded or over
// the wire. Both implementations are single-pointer structs, so putting
// one in the interface does not allocate.
type session interface {
	begin() (txnOps, error)
}

type txnOps interface {
	lock(p store.Path, m lock.Mode) error
	commit() error
	abort()
}

type embedSession struct{ tm *txn.Manager }

func (s embedSession) begin() (txnOps, error) {
	t, err := s.tm.BeginCtx(context.Background())
	if err != nil {
		return nil, err
	}
	return embedTxn{t}, nil
}

type embedTxn struct{ t *txn.Txn }

func (t embedTxn) lock(p store.Path, m lock.Mode) error {
	return t.t.LockPath(context.Background(), p, m)
}
func (t embedTxn) commit() error { return t.t.Commit() }
func (t embedTxn) abort()        { t.t.Abort() }

type netSession struct{ cl *client.Client }

func (s netSession) begin() (txnOps, error) {
	t, err := s.cl.Begin(context.Background())
	if err != nil {
		return nil, err
	}
	return netTxn{t}, nil
}

type netTxn struct{ t *client.Txn }

func (t netTxn) lock(p store.Path, m lock.Mode) error {
	return t.t.LockPath(context.Background(), p, m)
}
func (t netTxn) commit() error { return t.t.Commit() }
func (t netTxn) abort()        { t.t.Abort() }
