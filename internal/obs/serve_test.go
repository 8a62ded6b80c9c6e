package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"colock/internal/lock"
	"colock/internal/trace"
)

func TestServeEndpoints(t *testing.T) {
	c := NewCollector(Options{})
	m := lock.NewManager(lock.Options{Sinks: []lock.EventSink{c}})
	if err := m.AcquireCtx(context.Background(), 1, "db1/seg1/cells/c1", lock.X); err != nil {
		t.Fatal(err)
	}
	defer m.ReleaseAll(1)

	extra := func(w io.Writer) { fmt.Fprintf(w, "colock_protocol_requests_total 7\n") }
	srv, err := Serve("127.0.0.1:0", m, c, nil, extra)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`colock_events_total{kind="grant"} 1`,
		"# TYPE colock_acquire_latency_seconds summary",
		`colock_acquire_latency_seconds{mode="X",unit="entry-point",quantile="0.5"}`,
		"colock_table_entries 1",
		`colock_lock_ops_total{op="requests"} 1`,
		"colock_active_txns 1",
		"colock_protocol_requests_total 7", // the extra writer
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

	var queues []map[string]any
	if err := json.Unmarshal([]byte(get("/queues")), &queues); err != nil {
		t.Fatalf("/queues not JSON: %v", err)
	}
	if len(queues) != 1 || queues[0]["resource"] != "db1/seg1/cells/c1" {
		t.Errorf("queues = %v, want the one held resource", queues)
	}
	var contended []map[string]any
	if err := json.Unmarshal([]byte(get("/queues?contended=1")), &contended); err != nil {
		t.Fatal(err)
	}
	if len(contended) != 0 {
		t.Errorf("contended queues = %v, want none", contended)
	}

	if dot := get("/dot"); ValidateDOT(dot) != nil {
		t.Errorf("/dot output invalid:\n%s", dot)
	}
	if index := get("/"); !strings.Contains(index, "/metrics") {
		t.Errorf("index page missing endpoint list:\n%s", index)
	}
}

func TestHandlerWithoutCollector(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	srv, err := Serve("127.0.0.1:0", m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "colock_table_entries 0") {
		t.Errorf("manager-only metrics missing table gauge:\n%s", body)
	}
	if strings.Contains(string(body), "colock_events_total") {
		t.Errorf("nil collector must not emit event counters:\n%s", body)
	}
	// With no trace sources the /trace routes answer 404, not panic.
	for _, path := range []string{"/trace/spans", "/trace/incidents", "/trace/profile"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without sources: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestIndexListsRegisteredRoutes pins the "/" index to the registration
// set: every live route listed, conditional routes absent unless their
// source is wired, nothing invented.
func TestIndexListsRegisteredRoutes(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	fetch := func(ts *TraceSources) []string {
		t.Helper()
		srv, err := Serve("127.0.0.1:0", m, nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		resp, err := http.Get("http://" + srv.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var routes []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "/") {
				routes = append(routes, line)
			}
		}
		return routes
	}

	minimal := fetch(nil)
	wantMin := []string{"/dot", "/metrics", "/queues"}
	if fmt.Sprint(minimal) != fmt.Sprint(wantMin) {
		t.Errorf("minimal index = %v, want %v", minimal, wantMin)
	}

	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "{}") })
	rec := trace.NewRecorder(trace.Options{ShardOf: m.ShardOf})
	full := fetch(&TraceSources{
		Recorder:  rec,
		Incidents: trace.NewIncidentWriter(t.TempDir(), rec, m, trace.IncidentOptions{}),
		Profile:   trace.NewProfile(),
		Health:    stub,
		Journal:   stub,
		Pprof:     true,
	})
	wantFull := []string{
		"/debug/pprof/", "/dot", "/health", "/journal/status",
		"/metrics", "/queues", "/trace/incidents", "/trace/profile", "/trace/spans",
	}
	if fmt.Sprint(full) != fmt.Sprint(wantFull) {
		t.Errorf("full index = %v, want %v", full, wantFull)
	}

	// The conditional routes still answer (404) even when unlisted.
	srv, err := Serve("127.0.0.1:0", m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/journal/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/journal/status without a journal: status %d, want 404", resp.StatusCode)
	}
}

// TestPprofOptIn: /debug/pprof/ serves only when TraceSources.Pprof is set —
// profiling endpoints must be a deliberate deployment decision.
func TestPprofOptIn(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	srv, err := Serve("127.0.0.1:0", m, nil, &TraceSources{Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "heap profile") {
		t.Errorf("pprof heap output unexpected:\n%.200s", body)
	}

	off, err := Serve("127.0.0.1:0", m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	resp, err = http.Get("http://" + off.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}
}

func TestServeTraceRoutes(t *testing.T) {
	m := lock.NewManager(lock.Options{})
	rec := trace.NewRecorder(trace.Options{ShardOf: m.ShardOf})
	prof := trace.NewProfile()
	iw := trace.NewIncidentWriter(t.TempDir(), rec, m, trace.IncidentOptions{})
	m.AttachSink(prof)
	m.AttachSink(iw)

	sp := rec.Start(7, "lock", "db1/seg1/cells/c1", lock.S)
	sp.Child("acquire", "db1/seg1/cells/c1", lock.S).End(nil)
	sp.End(nil)
	if _, err := iw.Trigger("timeout", 7, "db1/seg1/cells/c1", "S"); err != nil {
		t.Fatal(err)
	}
	// A synthetic blocked-time sample so the profile is non-empty.
	prof.Record(lock.Event{Kind: "wait", Txn: 7, Resource: "db1/seg1/cells/c1", Mode: lock.X, Blockers: []lock.TxnID{3}})
	prof.Record(lock.Event{Kind: "grant", Txn: 7, Resource: "db1/seg1/cells/c1", Mode: lock.X, Waited: true, Dur: 1500})

	srv, err := Serve("127.0.0.1:0", m, nil, &TraceSources{Recorder: rec, Incidents: iw, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	var byTxn []trace.Span
	if err := json.Unmarshal([]byte(get("/trace/spans?txn=7")), &byTxn); err != nil {
		t.Fatalf("/trace/spans?txn=7 not JSON: %v", err)
	}
	if len(byTxn) != 2 || byTxn[0].Kind != "lock" {
		t.Errorf("spans for txn 7 = %+v, want root + child", byTxn)
	}
	var recent []trace.Span
	if err := json.Unmarshal([]byte(get("/trace/spans?n=10")), &recent); err != nil {
		t.Fatalf("/trace/spans not JSON: %v", err)
	}
	if len(recent) == 0 {
		t.Error("/trace/spans returned no recent spans")
	}
	for _, q := range []string{"?n=abc", "?n=-3", "?n=0", "?txn=x"} {
		resp, err := http.Get("http://" + srv.Addr() + "/trace/spans" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/trace/spans%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	var incidents []trace.IncidentInfo
	if err := json.Unmarshal([]byte(get("/trace/incidents")), &incidents); err != nil {
		t.Fatalf("/trace/incidents not JSON: %v", err)
	}
	if len(incidents) != 1 || incidents[0].Reason != "timeout" {
		t.Errorf("incidents = %+v, want one timeout incident", incidents)
	}

	profile := get("/trace/profile")
	if !strings.Contains(profile, "txn:7;X:db1/seg1/cells/c1;blocked-on:txn:3 1500") {
		t.Errorf("/trace/profile missing folded stack:\n%s", profile)
	}

	if index := get("/"); !strings.Contains(index, "/trace/profile") {
		t.Errorf("index page missing trace endpoints:\n%s", index)
	}
}
