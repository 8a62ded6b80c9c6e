package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/store"
	"colock/internal/trace"
)

// get fetches path from base and returns the body, failing the test unless
// the status is want.
func get(t *testing.T, base, path string, want int) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d:\n%s", path, resp.StatusCode, want, b)
	}
	return string(b), resp.Header.Get("Content-Type")
}

func TestServeEndpoints(t *testing.T) {
	e := open(t, t.TempDir())
	if err := e.Manager.AcquireCtx(context.Background(), 1, "db1/seg1/cells/c1", lock.X); err != nil {
		t.Fatal(err)
	}
	defer e.Manager.ReleaseAll(1)

	extra := func(w io.Writer) { fmt.Fprintf(w, "colock_extra_total 7\n") }
	srv, err := e.ServeObs("127.0.0.1:0", false, extra)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	metrics, ct := get(t, base, "/metrics", http.StatusOK)
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		`colock_events_total{kind="grant"} 1`,
		"# TYPE colock_acquire_latency_seconds summary",
		`colock_acquire_latency_seconds{mode="X",unit="entry-point",quantile="0.5"}`,
		"colock_table_entries 1",
		`colock_lock_ops_total{op="requests"} 1`,
		"colock_active_txns 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	// Every manager counter is exported, the admission and fault-injection
	// ones included.
	if n := strings.Count(metrics, "colock_lock_ops_total{op="); n != 21 {
		t.Errorf("/metrics exports %d colock_lock_ops_total ops, want 21", n)
	}
	for _, c := range (lock.Stats{}).Counters() {
		if want := fmt.Sprintf("colock_lock_ops_total{op=%q} ", c.Name); !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One route writes every component, in this order, then the extras.
	last := -1
	for _, fam := range []string{
		"colock_events_total", "colock_table_entries", "colock_protocol_ops_total",
		"colock_health_state", "colock_journal_records_total", "colock_extra_total",
	} {
		at := strings.Index(metrics, fam)
		if at < 0 || at < last {
			t.Errorf("/metrics: %s at offset %d, after %d; want every family present and in order", fam, at, last)
		}
		last = at
	}

	queues := func(query string) []map[string]any {
		t.Helper()
		body, ct := get(t, base, "/queues"+query, http.StatusOK)
		if ct != "application/json; charset=utf-8" {
			t.Errorf("/queues content type %q", ct)
		}
		var qs []map[string]any
		if err := json.Unmarshal([]byte(body), &qs); err != nil {
			t.Fatalf("/queues%s not JSON: %v", query, err)
		}
		return qs
	}
	// ?contended= filters only on a true value: the one held, uncontended
	// lock is listed unless the filter is on.
	for _, query := range []string{"", "?contended=0", "?contended=false"} {
		if qs := queues(query); len(qs) != 1 || qs[0]["resource"] != "db1/seg1/cells/c1" {
			t.Errorf("/queues%s = %v, want the one held resource", query, qs)
		}
	}
	for _, query := range []string{"?contended=1", "?contended=true"} {
		if qs := queues(query); len(qs) != 0 {
			t.Errorf("/queues%s = %v, want none", query, qs)
		}
	}

	if dot, ct := get(t, base, "/dot", http.StatusOK); obs.ValidateDOT(dot) != nil || ct != "text/vnd.graphviz; charset=utf-8" {
		t.Errorf("/dot output invalid (content type %q):\n%s", ct, dot)
	}

	body, ct := get(t, base, "/health", http.StatusOK)
	if ct != "application/json" {
		t.Errorf("/health content type %q", ct)
	}
	var rep health.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("decode /health: %v", err)
	}
	if rep.State == "" || rep.WindowMs != 1000 {
		t.Errorf("/health report = %+v", rep)
	}

	body, ct = get(t, base, "/journal/status", http.StatusOK)
	var st journal.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil || ct != "application/json; charset=utf-8" {
		t.Fatalf("/journal/status (content type %q) not a journal.Status: %v", ct, err)
	}
	if st.Dir != e.Journal.Status().Dir {
		t.Errorf("/journal/status = %+v", st)
	}
}

// TestIndexListsRegisteredRoutes pins the "/" index to the registration
// set: every route listed, /journal/status only with a journal and
// /debug/pprof/ only with pprof, nothing invented; an unlisted route is 404.
func TestIndexListsRegisteredRoutes(t *testing.T) {
	always := []string{"/dot", "/health", "/metrics", "/queues", "/trace/incidents", "/trace/profile", "/trace/spans"}
	for _, tc := range []struct {
		journal, pprof bool
		extra          []string
	}{
		{false, false, nil},
		{true, false, []string{"/journal/status"}},
		{false, true, []string{"/debug/pprof/"}},
		{true, true, []string{"/debug/pprof/", "/journal/status"}},
	} {
		dir := ""
		if tc.journal {
			dir = t.TempDir()
		}
		srv := httptest.NewServer(open(t, dir).Handler(tc.pprof))
		index, _ := get(t, srv.URL, "/", http.StatusOK)
		var routes []string
		for _, line := range strings.Split(index, "\n") {
			if strings.HasPrefix(line, "/") {
				routes = append(routes, line)
			}
		}
		want := append(append([]string{}, always...), tc.extra...)
		sort.Strings(want)
		if fmt.Sprint(routes) != fmt.Sprint(want) {
			t.Errorf("journal=%v pprof=%v: index = %v, want %v", tc.journal, tc.pprof, routes, want)
		}
		if !tc.journal {
			get(t, srv.URL, "/journal/status", http.StatusNotFound)
		}
		if !tc.pprof {
			get(t, srv.URL, "/debug/pprof/", http.StatusNotFound)
		}
		srv.Close()
	}
}

// TestPprofOptIn: /debug/pprof/ serves only with pprof set — profiling
// endpoints must be a deliberate deployment decision.
func TestPprofOptIn(t *testing.T) {
	e := open(t, "")
	on := httptest.NewServer(e.Handler(true))
	defer on.Close()
	if body, _ := get(t, on.URL, "/debug/pprof/heap?debug=1", http.StatusOK); !strings.Contains(body, "heap profile") {
		t.Errorf("pprof heap output unexpected:\n%.200s", body)
	}
	off := httptest.NewServer(e.Handler(false))
	defer off.Close()
	get(t, off.URL, "/debug/pprof/", http.StatusNotFound)
}

func TestServeTraceRoutes(t *testing.T) {
	e := open(t, "")
	forceTimeout(t, e) // one incident, and blocked time in the profile
	tx := e.Txns.Begin()
	defer tx.Abort()
	if err := tx.LockPath(context.Background(), store.P("cells", "c1"), lock.S); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler(false))
	defer srv.Close()

	decodeSpans := func(query string) []trace.Span {
		t.Helper()
		body, ct := get(t, srv.URL, "/trace/spans"+query, http.StatusOK)
		var spans []trace.Span
		if err := json.Unmarshal([]byte(body), &spans); err != nil || ct != "application/json; charset=utf-8" {
			t.Fatalf("/trace/spans%s (content type %q) not JSON: %v", query, ct, err)
		}
		return spans
	}
	if byTxn := decodeSpans(fmt.Sprintf("?txn=%d", tx.ID())); len(byTxn) < 2 || byTxn[0].Txn != tx.ID() {
		t.Errorf("spans for txn %d = %+v, want its root and children", tx.ID(), byTxn)
	}
	if recent := decodeSpans("?n=10"); len(recent) == 0 || len(recent) > 10 {
		t.Errorf("/trace/spans?n=10 returned %d spans", len(recent))
	}
	if spans := decodeSpans("?txn=999999"); len(spans) != 0 {
		t.Errorf("spans of an unknown txn = %+v, want []", spans)
	}
	for _, q := range []string{"?n=abc", "?n=-3", "?n=0", "?txn=x"} {
		get(t, srv.URL, "/trace/spans"+q, http.StatusBadRequest)
	}

	body, _ := get(t, srv.URL, "/trace/incidents", http.StatusOK)
	var incidents []trace.IncidentInfo
	if err := json.Unmarshal([]byte(body), &incidents); err != nil {
		t.Fatalf("/trace/incidents not JSON: %v", err)
	}
	if len(incidents) != 1 || incidents[0].Reason != "timeout" {
		t.Fatalf("incidents = %+v, want one timeout incident", incidents)
	}

	// The timed-out request's blocked time, folded under its resource.
	stack := strings.ReplaceAll(string(incidents[0].Resource), "/", ";") + ";X "
	if profile, ct := get(t, srv.URL, "/trace/profile", http.StatusOK); !strings.Contains(profile, stack) || ct != "text/plain; charset=utf-8" {
		t.Errorf("/trace/profile (content type %q) missing %q:\n%s", ct, stack, profile)
	}
}
