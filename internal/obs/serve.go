package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"colock/internal/lock"
	"colock/internal/trace"
)

// The exposition endpoint is opt-in: nothing in the lock manager or the
// collector touches the network unless Serve (or Handler) is called, and
// every page is computed on demand from the same introspection calls a
// test would make — there is no background goroutine besides the HTTP
// server itself.

// TraceSources bundles the per-transaction tracing surfaces /trace/* serve.
// Any field may be nil; its route then answers 404.
type TraceSources struct {
	// Recorder supplies buffered span trees (/trace/spans?txn=N) and the
	// flight recorder's recent spans (/trace/spans?n=K).
	Recorder *trace.Recorder
	// Incidents lists written incident dumps (/trace/incidents).
	Incidents *trace.IncidentWriter
	// Profile is the contention table (health.Monitor.Profile) whose
	// blocked time /trace/profile renders in folded-stack text, ready for
	// flamegraph tooling.
	Profile *trace.Profile
	// Health serves the lock-health verdict on /health (JSON state + window
	// series + top-K hot resources). Wire internal/health.Monitor.Handler
	// here; obs stays dependency-free of the health package by taking the
	// plain http.Handler.
	Health http.Handler
	// Journal serves the durable lock-event journal's status on
	// /journal/status (JSON counters: segments, records, drops). Wire
	// internal/journal.Writer.StatusHandler here; like Health it is a plain
	// http.Handler so obs stays dependency-free of the journal package.
	Journal http.Handler
	// Pprof opt-in mounts net/http/pprof under /debug/pprof/ (CPU, heap,
	// mutex, block profiles — the natural companions to /trace/profile when
	// chasing grant-path regressions). Off by default: the profile endpoints
	// can observably perturb a latency-sensitive process, so production
	// deployments enable them deliberately (colockshell -pprof).
	Pprof bool
}

// Handler returns an http.Handler exposing the observability surface:
//
//	/metrics          Prometheus text format (collector + manager + extras)
//	/queues           live lock-table queue snapshot (JSON; ?contended=1 filters)
//	/dot              waits-for graph in Graphviz DOT format
//	/health           lock-health verdict (JSON; see internal/health)
//	/trace/spans      span trees (JSON; ?txn=N for one txn's buffer, else ?n=K recent)
//	/trace/incidents  incident-dump index (JSON)
//	/trace/profile    blocked-time contention profile (folded-stack text)
//	/journal/status   durable journal status (JSON; see internal/journal)
//	/debug/pprof/     net/http/pprof profiles (opt-in via TraceSources.Pprof)
//
// col may be nil (manager metrics only), as may ts or any of its fields
// (the corresponding routes then 404); extra writers are appended to
// /metrics, letting callers export their own families (e.g. the core
// protocol's rule counters) without this package importing them.
//
// The index page "/" is registration-driven: it lists exactly the routes
// that are live for this handler's configuration, so a scraper (or a human
// with curl) discovers the surface instead of guessing it.
func Handler(m *lock.Manager, col *Collector, ts *TraceSources, extra ...func(io.Writer)) http.Handler {
	if ts == nil {
		ts = &TraceSources{}
	}
	mux := http.NewServeMux()
	var routes []string
	register := func(path string, live bool, h http.HandlerFunc) {
		mux.HandleFunc(path, h)
		if live {
			routes = append(routes, path)
		}
	}
	register("/metrics", true, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if col != nil {
			col.WriteMetrics(w)
		}
		WriteManagerMetrics(w, m)
		for _, f := range extra {
			f(w)
		}
	})
	register("/queues", true, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteQueuesJSON(w, m, r.URL.Query().Get("contended") != "")
	})
	register("/dot", true, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		io.WriteString(w, m.WaitsForDOT())
	})
	register("/trace/spans", ts.Recorder != nil, func(w http.ResponseWriter, r *http.Request) {
		if ts.Recorder == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if q := r.URL.Query().Get("txn"); q != "" {
			id, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad txn", http.StatusBadRequest)
				return
			}
			spans := ts.Recorder.SpansOf(lock.TxnID(id))
			if spans == nil {
				spans = []trace.Span{}
			}
			_ = enc.Encode(spans)
			return
		}
		n := 0 // everything retained
		if q := r.URL.Query().Get("n"); q != "" {
			var err error
			if n, err = strconv.Atoi(q); err != nil || n < 1 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
		}
		spans := ts.Recorder.Recent(n)
		if spans == nil {
			spans = []trace.Span{}
		}
		_ = enc.Encode(spans)
	})
	register("/trace/incidents", ts.Incidents != nil, func(w http.ResponseWriter, r *http.Request) {
		if ts.Incidents == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		infos := ts.Incidents.Incidents()
		if infos == nil {
			infos = []trace.IncidentInfo{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(infos)
	})
	register("/health", ts.Health != nil, func(w http.ResponseWriter, r *http.Request) {
		if ts.Health == nil {
			http.NotFound(w, r)
			return
		}
		ts.Health.ServeHTTP(w, r)
	})
	register("/trace/profile", ts.Profile != nil, func(w http.ResponseWriter, r *http.Request) {
		if ts.Profile == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = ts.Profile.WriteFolded(w)
	})
	register("/journal/status", ts.Journal != nil, func(w http.ResponseWriter, r *http.Request) {
		if ts.Journal == nil {
			http.NotFound(w, r)
			return
		}
		ts.Journal.ServeHTTP(w, r)
	})
	if ts.Pprof {
		// Explicit handlers rather than net/http/pprof's init-time
		// registration: that targets http.DefaultServeMux, not this mux.
		register("/debug/pprof/", true, pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	sort.Strings(routes)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "colock observability\n\n")
		for _, route := range routes {
			fmt.Fprintln(w, route)
		}
	})
	return mux
}

// Server is a running exposition endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the exposition endpoint on addr (use ":0" or "127.0.0.1:0"
// to pick a free port, e.g. in tests) and returns once the listener is
// bound. Close shuts it down.
func Serve(addr string, m *lock.Manager, col *Collector, ts *TraceSources, extra ...func(io.Writer)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: Handler(m, col, ts, extra...), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
