package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"colock/internal/lock"
	"colock/internal/workload"
)

// The experiment tests assert the SHAPE of each result — who wins, and in
// the right direction — not absolute numbers, mirroring the reproduction
// goal ("the shape should hold").

func cell(t *testing.T, tab, row, col string, rows [][]string, header []string) string {
	t.Helper()
	ci := -1
	for i, h := range header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("%s: no column %q", tab, col)
	}
	for _, r := range rows {
		if strings.Contains(strings.Join(r, "|"), row) {
			return r[ci]
		}
	}
	t.Fatalf("%s: no row matching %q", tab, row)
	return ""
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "/s")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as number", s)
	}
	return f
}

func TestE1Shape(t *testing.T) {
	tab := E1Fig7Concurrency(10)
	prime := num(t, cell(t, "E1", "rule 4'", "waits", tab.Rows, tab.Header))
	plain := num(t, cell(t, "E1", "rule 4 (plain)", "waits", tab.Rows, tab.Header))
	if prime != 0 {
		t.Errorf("rule 4' waits = %v, want 0", prime)
	}
	if plain == 0 {
		t.Errorf("rule 4 waits = %v, want > 0 (serialization on e2)", plain)
	}
}

func TestE2Shape(t *testing.T) {
	tab := E2Granularity(4, 30, 100*time.Microsecond)
	col := num(t, cell(t, "E2", "colock", "waits", tab.Rows, tab.Header))
	whole := num(t, cell(t, "E2", "xsql-whole-object", "waits", tab.Rows, tab.Header))
	if col != 0 {
		t.Errorf("colock waits = %v, want 0 (disjoint parts)", col)
	}
	if whole == 0 {
		t.Errorf("whole-object waits = %v, want > 0", whole)
	}
	colReq := num(t, cell(t, "E2", "colock", "lock-requests", tab.Rows, tab.Header))
	tupReq := num(t, cell(t, "E2", "systemr-tuple", "lock-requests", tab.Rows, tab.Header))
	if tupReq <= colReq {
		t.Errorf("tuple-level requests (%v) not above colock (%v)", tupReq, colReq)
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3SharedXLock([]int{2, 16})
	// For every sharing level: traditional scans nodes, colock scans none
	// beyond the isShared check, and traditional issues more lock requests.
	var colockReq, tradReq, tradScan float64
	for _, r := range tab.Rows {
		req := num(t, r[3])
		scan := num(t, r[4])
		if r[1] == "colock" && r[0] == "16" {
			colockReq = req
		}
		if r[1] == "traditional-dag" && r[0] == "16" {
			tradReq = req
			tradScan = scan
		}
	}
	if tradScan == 0 {
		t.Error("traditional DAG performed no reverse scan")
	}
	if tradReq <= colockReq {
		t.Errorf("traditional requests (%v) not above colock (%v)", tradReq, colockReq)
	}
}

func TestE4Shape(t *testing.T) {
	tab := E4FromTheSide(6)
	colockLost := num(t, cell(t, "E4", "colock", "lost-updates", tab.Rows, tab.Header))
	naiveLost := num(t, cell(t, "E4", "naive-dag-unsafe", "lost-updates", tab.Rows, tab.Header))
	if colockLost != 0 {
		t.Errorf("colock lost %v updates", colockLost)
	}
	if naiveLost == 0 {
		t.Error("naive DAG lost no updates (race did not manifest)")
	}
}

func TestE5Shape(t *testing.T) {
	tab := E5Authorization([]int{8}, 200*time.Microsecond)
	var primeWaits, plainWaits float64
	for _, r := range tab.Rows {
		if r[1] == "rule 4'" {
			primeWaits = num(t, r[2])
		}
		if r[1] == "rule 4" {
			plainWaits = num(t, r[2])
		}
	}
	if primeWaits != 0 {
		t.Errorf("rule 4' waits = %v", primeWaits)
	}
	if plainWaits == 0 {
		t.Error("rule 4 produced no waits")
	}
}

func TestE6Shape(t *testing.T) {
	tab := E6Escalation(200, []float64{0.05, 1.0})
	// At 100% the anticipating planner issues few requests, the naive one
	// issues ~200 and crosses the run-time escalation threshold.
	var anticipating, naive, naiveEsc float64
	for _, r := range tab.Rows {
		if r[0] == "100%" && r[1] == "anticipating" {
			anticipating = num(t, r[3])
		}
		if r[0] == "100%" && r[1] == "naive" {
			naive = num(t, r[3])
			naiveEsc = num(t, r[4])
		}
	}
	if naive <= anticipating {
		t.Errorf("naive requests (%v) not above anticipating (%v)", naive, anticipating)
	}
	if naiveEsc == 0 {
		t.Error("naive plan did not hit the run-time escalation threshold")
	}
	// At 5% both plans stay at element level: identical request counts.
	var a5, n5 string
	for _, r := range tab.Rows {
		if r[0] == "5%" && r[1] == "anticipating" {
			a5 = r[2]
		}
		if r[0] == "5%" && r[1] == "naive" {
			n5 = r[2]
		}
	}
	if a5 != n5 || a5 != "element c_objects" {
		t.Errorf("5%% granules: anticipating=%q naive=%q", a5, n5)
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7LongTransactions(6, 25*time.Millisecond)
	colBlocked := num(t, cell(t, "E7", "colock", "blocked-readers", tab.Rows, tab.Header))
	wholeBlocked := num(t, cell(t, "E7", "xsql-whole-object", "blocked-readers", tab.Rows, tab.Header))
	if colBlocked != 0 {
		t.Errorf("colock blocked %v readers", colBlocked)
	}
	if wholeBlocked == 0 {
		t.Error("whole-object blocked no readers")
	}
}

// TestE8Shape: on disjoint objects the protocol "is identical to the
// traditional one" (§4.4.2.1) — not only in the request count: run one
// transaction at a time, each locker's manager grants the same (kind,
// resource, mode) sequence to every transaction.
func TestE8Shape(t *testing.T) {
	tab := E8DisjointOverhead(8, 3)
	if r := num(t, cell(t, "E8", "colock", "txns", tab.Rows, tab.Header)); r != 8 {
		t.Errorf("E8 ran %v transactions, want 8", r)
	}
	colReq, col := e8Sequential(t, "colock", 8, 3)
	tradReq, trad := e8Sequential(t, "traditional-dag", 8, 3)
	if colReq != tradReq {
		t.Errorf("disjoint-only request counts differ: colock=%v traditional=%v (must be identical, §4.4.2.1)", colReq, tradReq)
	}
	for id, c := range col {
		if !slices.Equal(c, trad[id]) {
			t.Errorf("txn %d: grants differ\ncolock:          %v\ntraditional-dag: %v", id, c, trad[id])
		}
	}
	if len(col) != 8 || len(trad) != 8 {
		t.Errorf("grants recorded for %d and %d transactions, want 8", len(col), len(trad))
	}
}

// e8Sequential runs E8's scripts one transaction at a time under the named
// locker and returns the manager's request count and every transaction's
// grants. Run concurrently, a deadlock victim's restart adds its requests
// again; one at a time, the count is the scripts' own.
func e8Sequential(t *testing.T, tech string, objects, opsPerTxn int) (uint64, grantLog) {
	t.Helper()
	cfg, scripts := e8Workload(objects, opsPerTxn)
	l := lockerStack(tech, workload.Generate(cfg))
	grants := grantLog{}
	l.Manager().AttachSink(grants)
	for j, ops := range scripts {
		id := lock.TxnID(j + 1)
		if err := lockOps(l, id, ops); err != nil {
			t.Fatalf("%s txn %d: %v", tech, id, err)
		}
		l.ReleaseAll(id)
	}
	return l.Manager().Stats().Requests, grants
}

// grantLog records each transaction's grant and convert events, in order,
// as "kind resource mode".
type grantLog map[lock.TxnID][]string

func (g grantLog) Record(e lock.Event) {
	if e.Code == lock.KindGrant || e.Code == lock.KindConvert {
		g[e.Txn] = append(g[e.Txn], fmt.Sprintf("%s %s %v", e.Kind, e.Resource, e.Mode))
	}
}

// TestRequestCounts pins the lock-request columns of E2 and E3 and E3's
// nodes-scanned column at the small scale, and E8's request counts at both
// scales: the paper's request-count claims, which no change to how a locker
// reaches the manager may move. E8 runs its scripts concurrently, where a
// deadlock victim's restart repeats requests, so its pins are read from the
// scripts run one transaction at a time.
func TestRequestCounts(t *testing.T) {
	for _, pin := range []struct {
		id   string
		cols []string
		want []string
	}{
		{"E2", []string{"technique", "lock-requests"}, []string{
			"colock 88", "xsql-whole-object 64", "systemr-tuple 2448"}},
		{"E3", []string{"cells", "technique", "lock-requests", "nodes-scanned"}, []string{
			"2 colock 4 0", "2 traditional-dag 36 184",
			"8 colock 4 0", "8 traditional-dag 116 664",
			"32 colock 4 0", "32 traditional-dag 508 2584"}},
	} {
		i := slices.IndexFunc(All, func(e Experiment) bool { return e.ID == pin.id })
		tab := All[i].Run(true)
		var got []string
		for _, r := range tab.Rows {
			var f []string
			for _, c := range pin.cols {
				f = append(f, r[slices.Index(tab.Header, c)])
			}
			got = append(got, strings.Join(f, " "))
		}
		if !slices.Equal(got, pin.want) {
			t.Errorf("%s %v:\n got %q\nwant %q", pin.id, pin.cols, got, pin.want)
		}
	}
	for _, pin := range []struct {
		objects, ops int
		want         uint64
	}{{16, 4, 384}, {64, 6, 2304}} { // E8 quick and full
		for _, tech := range []string{"colock", "traditional-dag"} {
			if got, _ := e8Sequential(t, tech, pin.objects, pin.ops); got != pin.want {
				t.Errorf("E8 %d×%d %s: %d requests, want %d", pin.objects, pin.ops, tech, got, pin.want)
			}
		}
	}
}

func TestE9Shape(t *testing.T) {
	tab := E9BenefitSweep([]int{2, 4}, 25*time.Millisecond)
	// colock never blocks readers; whole-object blocks more at depth 4 than
	// the technique comparison at depth 2 shows in total wait.
	for _, r := range tab.Rows {
		if r[1] == "colock-rule4'" && num(t, r[3]) != 0 {
			t.Errorf("colock blocked readers at depth %s", r[0])
		}
	}
	var d2, d4 float64
	for _, r := range tab.Rows {
		if r[1] == "xsql-whole-object" && r[0] == "2" {
			d2 = num(t, r[3])
		}
		if r[1] == "xsql-whole-object" && r[0] == "4" {
			d4 = num(t, r[3])
		}
	}
	if d4 < d2 {
		t.Errorf("whole-object blocked readers should not shrink with depth: d2=%v d4=%v", d2, d4)
	}
	if d4 == 0 {
		t.Error("whole-object blocked no readers at depth 4")
	}
}

func TestE10Shape(t *testing.T) {
	tab := E10DeEscalation(6, 25*time.Millisecond)
	coarse := num(t, cell(t, "E10", "hold-coarse", "blocked-readers", tab.Rows, tab.Header))
	deesc := num(t, cell(t, "E10", "de-escalate", "blocked-readers", tab.Rows, tab.Header))
	if deesc != 0 {
		t.Errorf("de-escalation blocked %v readers", deesc)
	}
	if coarse == 0 {
		t.Error("coarse lock blocked no readers")
	}
}

func TestE11Shape(t *testing.T) {
	tab := E11BLUCoalescing(16)
	perAttr := num(t, cell(t, "E11", "per-attribute", "table-entries", tab.Rows, tab.Header))
	coalesced := num(t, cell(t, "E11", "coalesced", "table-entries", tab.Rows, tab.Header))
	if coalesced >= perAttr {
		t.Errorf("coalescing did not shrink the table: %v vs %v", coalesced, perAttr)
	}
}

func TestE12Shape(t *testing.T) {
	tab := E12RecursiveClosure([]int{4, 16})
	// Closure size equals the chain depth for both variants; cost grows
	// linearly and the cyclic variant costs the same as the acyclic one.
	var reqs [2][2]float64 // [depth-index][acyclic,cyclic]
	for _, r := range tab.Rows {
		di := 0
		if r[0] == "16" {
			di = 1
		}
		vi := 0
		if r[1] == "cyclic" {
			vi = 1
		}
		if r[2] != r[0] {
			t.Errorf("depth %s %s: closure = %s, want %s", r[0], r[1], r[2], r[0])
		}
		reqs[di][vi] = num(t, r[3])
	}
	if reqs[0][0] != reqs[0][1] || reqs[1][0] != reqs[1][1] {
		t.Errorf("cyclic cost differs from acyclic: %v", reqs)
	}
	if reqs[1][0] <= reqs[0][0] {
		t.Errorf("cost not growing with depth: %v", reqs)
	}
}

func TestE13Shape(t *testing.T) {
	tab := E13DeadlockPolicy(4, 12)
	detect := num(t, cell(t, "E13", "detect", "txns", tab.Rows, tab.Header))
	waitdie := num(t, cell(t, "E13", "wait-die", "txns", tab.Rows, tab.Header))
	if detect != waitdie || detect == 0 {
		t.Errorf("txn counts wrong: %v vs %v", detect, waitdie)
	}
	// Both policies finish all transactions; the table reports the abort
	// trade-off. Wait-die may abort spuriously; detection aborts only on
	// real cycles — assert both columns parse and are non-negative.
	for _, r := range tab.Rows {
		if num(t, r[2]) < 0 || num(t, r[3]) < 0 {
			t.Errorf("negative counters: %v", r)
		}
	}
}

func TestQuickRunsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite in -short mode")
	}
	for _, e := range All {
		tab := e.Run(true)
		if len(tab.Rows) == 0 {
			t.Errorf("table %q empty", tab.Title)
		}
		if tab.String() == "" {
			t.Errorf("table %q renders empty", tab.Title)
		}
	}
}
