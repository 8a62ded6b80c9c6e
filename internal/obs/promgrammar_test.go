package obs_test

// Grammar audit of the full /metrics document: the page an engine with a
// journal serves, with the server's and the retry collector's families as
// extras (colockd and colockshell pass one each), checked against the
// Prometheus text exposition rules: well-formed HELP and TYPE lines, every
// sample under a declared family, samples grouped with their family,
// parseable label sets and values, and no family declared twice across the
// writers (duplicate names would make a scraper reject the whole page).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/engine"
	"colock/internal/lock"
	"colock/internal/obs"
	"colock/internal/server"
	"colock/internal/store"
)

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) \S.*$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// familyOf maps a sample name to its declaring family: summary/histogram
// child series append _sum/_count/_bucket to the family name.
func familyOf(name string, declared map[string]string) string {
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, exists := declared[base]; exists {
				return base
			}
		}
	}
	return name
}

func checkPromGrammar(t *testing.T, doc string) {
	t.Helper()
	declaredType := map[string]string{} // family → type
	declaredHelp := map[string]bool{}
	samples := 0
	current := "" // family of the most recent TYPE line
	for i, line := range strings.Split(doc, "\n") {
		where := fmt.Sprintf("line %d: %q", i+1, line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed HELP, %s", where)
			}
			if declaredHelp[m[1]] {
				t.Fatalf("duplicate HELP for family %s, %s", m[1], where)
			}
			declaredHelp[m[1]] = true
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed TYPE, %s", where)
			}
			if _, dup := declaredType[m[1]]; dup {
				t.Fatalf("family %s declared twice, %s", m[1], where)
			}
			if !declaredHelp[m[1]] {
				t.Fatalf("TYPE without preceding HELP for %s, %s", m[1], where)
			}
			declaredType[m[1]] = m[2]
			current = m[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unrecognized comment line, %s", where)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample, %s", where)
			}
			name, labels, value := m[1], m[2], m[3]
			fam := familyOf(name, declaredType)
			if _, ok := declaredType[fam]; !ok {
				t.Fatalf("sample %s has no TYPE declaration, %s", name, where)
			}
			if fam != current {
				t.Fatalf("sample %s not grouped under its family %s (current group %s), %s",
					name, fam, current, where)
			}
			if labels != "" {
				body := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
				for _, pair := range splitLabels(body) {
					if !labelRe.MatchString(pair) {
						t.Fatalf("malformed label %q, %s", pair, where)
					}
				}
			}
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("unparseable value %q, %s", value, where)
			}
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("document contained no samples")
	}
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(body string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range body {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\':
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func TestMetricsGrammarAcrossAllWriters(t *testing.T) {
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	e, err := engine.Open(engine.Config{Store: st, IncidentDir: t.TempDir(), JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rc := obs.NewRetryCollector()

	// Populate label-bearing series: real lock traffic (event counters,
	// latency histograms, health windows + a hot key with a label-hostile
	// name), retry causes, a commit and a give-up.
	ctx := context.Background()
	if err := e.Manager.AcquireCtx(ctx, 1, "db1", lock.IX); err != nil {
		t.Fatal(err)
	}
	if err := e.Manager.AcquireCtx(ctx, 1, `db1/seg"odd\name`, lock.X); err != nil {
		t.Fatal(err)
	}
	e.Manager.ReleaseAll(1)
	// The waits come after the window close: closing windows decays the
	// hot counts, and two waits decayed twice leave no hot key to escape.
	now := time.Now().Add(2 * time.Second)
	e.Monitor.Advance(now)
	e.Monitor.Record(lock.Event{Kind: "wait", At: now, Resource: `db1/seg"odd\name`, Mode: lock.X})
	e.Monitor.Record(lock.Event{Kind: "wait", At: now, Resource: `db1/seg"odd\name`, Mode: lock.X})
	rc.Retry("victim", 1)
	rc.Retry("timeout", 2)
	rc.Done(3, nil)
	rc.Done(2, context.DeadlineExceeded)

	srv := httptest.NewServer(e.Handler(false, server.New(e.Txns, server.Options{}).WriteMetrics, rc.WriteMetrics))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(body)

	checkPromGrammar(t, doc)

	for _, fam := range []string{
		"colock_retries_total", "colock_health_state", "colock_health_hot_count",
		"colock_journal_records_total", "colock_server_sessions",
	} {
		if !strings.Contains(doc, "# TYPE "+fam+" ") {
			t.Fatalf("family %s missing from /metrics", fam)
		}
	}
	if !strings.Contains(doc, `resource="db1/seg\"odd\\name"`) {
		t.Errorf("/metrics does not carry the escaped hot key:\n%s", doc)
	}
}
