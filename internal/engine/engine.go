// Package engine assembles the observed lock engine that colockd and
// colockshell run: the protocol stack (namer → lock manager → protocol →
// transaction manager) with every event sink attached in the one order that
// is correct. It exists so that order has a single copy; the bare stack
// (lock.NewManager → core.NewProtocol → txn.NewManager) that examples,
// experiments and unit tests build is three lines and is not wrapped.
//
// Assembly order (DESIGN.md §9 "Assembly"): an operation's events go to the
// sinks in attach order, each sink seeing all of them before the next.
//
//  1. Collector — counters and latency histograms.
//  2. Journal (optional) — BEFORE the incident writer. This is the one
//     load-bearing position: a dump records the journal's offset, and the
//     victim/timeout event that triggers the dump must already be inside
//     that offset for `colockreplay -around` to replay up to and including
//     it.
//  3. Profile — pairs wait events with their terminal events.
//  4. Incident writer — dumps on victim/timeout, reading the recorder, the
//     manager's queues and the journal offset.
//  5. Monitor — health windows graded against health.DefaultSLO; its SLO
//     transitions are noted in the journal so offline replay can compare
//     its own grading against what fired live.
//
// Sinks a caller attaches afterwards (Manager.AttachSink) run after these.
// Fast-path hits bypass the manager and so the event stream; the protocol's
// single OnFastPathHit callback fans them to the monitor and the journal.
package engine

import (
	"fmt"
	"io"

	"colock/internal/authz"
	"colock/internal/core"
	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/store"
	"colock/internal/trace"
	"colock/internal/txn"
)

// Config is what a daemon decides about its engine.
type Config struct {
	// Store is the database the engine locks (required).
	Store *store.Store
	// Policy selects deadlock handling.
	Policy lock.Policy
	// Authorizer, when non-nil, turns on rule 4′ with this authorization
	// component; nil runs plain rule 4 with every unit modifiable.
	Authorizer authz.Authorizer
	// IncidentDir receives deadlock/timeout incident dumps (created on
	// demand).
	IncidentDir string
	// JournalDir, when non-empty, attaches the durable lock-event journal.
	JournalDir string
}

// Engine is the assembled stack. The fields are the live components; Journal
// is nil without Config.JournalDir.
type Engine struct {
	Manager   *lock.Manager
	Protocol  *core.Protocol
	Txns      *txn.Manager
	Collector *obs.Collector
	Recorder  *trace.Recorder
	Profile   *trace.Profile
	Incidents *trace.IncidentWriter
	Monitor   *health.Monitor
	Journal   *journal.Writer
}

// Open builds the engine. The only failure is a journal directory that
// cannot be opened; nothing is left running then.
func Open(cfg Config) (*Engine, error) {
	st := cfg.Store
	nm := core.NewNamer(st.Catalog(), false)
	kindOf := core.UnitKindOf(nm)
	col := obs.NewCollector(obs.Options{KindLabels: core.UnitKindLabels, KindOf: kindOf})
	mgr := lock.NewManager(lock.Options{Policy: cfg.Policy, Sinks: []lock.EventSink{col}})
	rec := trace.NewRecorder(trace.Options{
		ShardOf: mgr.ShardOf,
		KindOf: func(r lock.Resource) string {
			if k := kindOf(r); k >= 0 && k < len(core.UnitKindLabels) {
				return core.UnitKindLabels[k]
			}
			return "other"
		},
	})
	var jw *journal.Writer
	incOpts := trace.IncidentOptions{}
	if cfg.JournalDir != "" {
		var err error
		if jw, err = journal.Open(cfg.JournalDir, journal.Options{}); err != nil {
			return nil, err
		}
		mgr.AttachSink(jw)
		incOpts.JournalOffset = jw.Offset
	}
	prof := trace.NewProfile()
	iw := trace.NewIncidentWriter(cfg.IncidentDir, rec, mgr, incOpts)
	mgr.AttachSink(prof)
	mgr.AttachSink(iw)
	mon := health.NewMonitor(health.Options{
		SLO:         health.DefaultSLO,
		WaiterDepth: mgr.WaitingTxns,
		GrantPath:   mgr.Stats,
	})
	mgr.AttachSink(mon)

	popts := core.Options{Tracer: rec}
	if cfg.Authorizer != nil {
		popts.Rule4Prime, popts.Authorizer = true, cfg.Authorizer
	}
	proto := core.NewProtocol(mgr, st, nm, popts)
	if jw != nil {
		mon.OnTransition(func(tr health.Transition) {
			jw.Note(journal.KindHealth, fmt.Sprintf("%s->%s %s", tr.From, tr.To, tr.Reason))
		})
		proto.OnFastPathHit(func() {
			mon.RecordFastPathHit()
			jw.RecordFastPathHit()
		})
	} else {
		proto.OnFastPathHit(mon.RecordFastPathHit)
	}
	return &Engine{
		Manager:   mgr,
		Protocol:  proto,
		Txns:      txn.NewManager(proto, st),
		Collector: col,
		Recorder:  rec,
		Profile:   prof,
		Incidents: iw,
		Monitor:   mon,
		Journal:   jw,
	}, nil
}

// Close drains, flushes and closes the journal, returning its first write
// error. It is idempotent, so it may be called again (colockshell's .quit
// closes, and so does main's defer).
func (e *Engine) Close() error {
	if e.Journal == nil {
		return nil
	}
	return e.Journal.Close()
}

// ServeObs starts the observability HTTP endpoint over the engine's
// components: /metrics carries the manager's and collector's series, then
// the protocol's, the monitor's and the journal's, then extras (a daemon's
// own writers). The caller closes the returned server.
func (e *Engine) ServeObs(addr string, pprof bool, extras ...func(io.Writer)) (*obs.Server, error) {
	ts := &obs.TraceSources{
		Recorder:  e.Recorder,
		Incidents: e.Incidents,
		Profile:   e.Profile,
		Health:    e.Monitor.Handler(),
		Pprof:     pprof,
	}
	writers := []func(io.Writer){e.Protocol.WriteMetrics, e.Monitor.WriteMetrics}
	if e.Journal != nil {
		ts.Journal = e.Journal.StatusHandler()
		writers = append(writers, e.Journal.WriteMetrics)
	}
	return obs.Serve(addr, e.Manager, e.Collector, ts, append(writers, extras...)...)
}
