package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"sort"
	"strconv"
	"time"

	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/trace"
)

// ObsServer is a running observability endpoint.
type ObsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeObs starts the observability endpoint (Handler) on addr (":0" or
// "127.0.0.1:0" picks a free port) and returns once the listener is bound.
// The endpoint is opt-in: nothing in the engine touches the network unless
// ServeObs is called, and every page is computed on demand from the same
// introspection calls a test would make; the HTTP server is the only
// goroutine. The caller closes the returned server.
func (e *Engine) ServeObs(addr string, pprof bool, extras ...func(io.Writer)) (*ObsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &ObsServer{
		ln:  ln,
		srv: &http.Server{Handler: e.Handler(pprof, extras...), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *ObsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *ObsServer) Close() error { return s.srv.Close() }

// Handler returns the observability surface over the engine's components:
//
//	/metrics          Prometheus text: collector, manager, protocol, monitor,
//	                  journal, then extras (a daemon's own writers)
//	/queues           live lock-table queue snapshot (JSON; ?contended=1 filters)
//	/dot              waits-for graph in Graphviz DOT format
//	/health           lock-health verdict (JSON; see internal/health)
//	/trace/spans      span trees (JSON; ?txn=N for one txn's buffer, else ?n=K recent)
//	/trace/incidents  incident-dump index (JSON)
//	/trace/profile    blocked-time contention profile (folded-stack text)
//	/journal/status   journal status (JSON; only with a journal)
//	/debug/pprof/     net/http/pprof profiles (only with pprof)
//
// pprof mounts net/http/pprof: the profile endpoints can observably perturb
// a latency-sensitive process, so a deployment enables them deliberately
// (colockshell -pprof). The index page "/" lists exactly the routes
// registered, so a scraper (or a human with curl) discovers the surface
// instead of guessing it.
func (e *Engine) Handler(pprof bool, extras ...func(io.Writer)) http.Handler {
	mux := http.NewServeMux()
	var routes []string
	handle := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, h)
		routes = append(routes, path)
	}
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.Collector.WriteMetrics(w)
		obs.WriteManagerMetrics(w, e.Manager)
		e.Protocol.WriteMetrics(w)
		e.Monitor.WriteMetrics(w)
		if e.Journal != nil {
			e.Journal.WriteMetrics(w)
		}
		for _, f := range extras {
			f(w)
		}
	})
	handle("/queues", func(w http.ResponseWriter, r *http.Request) {
		contended, _ := strconv.ParseBool(r.URL.Query().Get("contended"))
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = obs.WriteQueuesJSON(w, e.Manager, contended)
	})
	handle("/dot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		io.WriteString(w, e.Manager.WaitsForDOT())
	})
	handle("/health", func(w http.ResponseWriter, r *http.Request) {
		// Polling is the monitor's clock (health.Monitor.Advance).
		e.Monitor.Advance(time.Now())
		w.Header().Set("Content-Type", "application/json")
		if err := e.Monitor.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	handle("/trace/spans", func(w http.ResponseWriter, r *http.Request) {
		var spans []trace.Span
		if q := r.URL.Query().Get("txn"); q != "" {
			id, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad txn", http.StatusBadRequest)
				return
			}
			spans = e.Recorder.SpansOf(lock.TxnID(id))
		} else {
			n := 0 // everything retained
			if q := r.URL.Query().Get("n"); q != "" {
				var err error
				if n, err = strconv.Atoi(q); err != nil || n < 1 {
					http.Error(w, "bad n", http.StatusBadRequest)
					return
				}
			}
			spans = e.Recorder.Recent(n)
		}
		if spans == nil {
			spans = []trace.Span{}
		}
		writeJSON(w, spans)
	})
	handle("/trace/incidents", func(w http.ResponseWriter, r *http.Request) {
		infos := e.Incidents.Incidents()
		if infos == nil {
			infos = []trace.IncidentInfo{}
		}
		writeJSON(w, infos)
	})
	handle("/trace/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = e.Monitor.Profile().WriteFolded(w)
	})
	if e.Journal != nil {
		handle("/journal/status", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, e.Journal.Status())
		})
	}
	if pprof {
		// Explicit handlers rather than net/http/pprof's init-time
		// registration: that targets http.DefaultServeMux, not this mux.
		handle("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
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

// writeJSON serves v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
