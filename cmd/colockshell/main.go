// Command colockshell is an interactive query shell over the paper's
// example database with live lock tracing: every HDBL query is executed
// through the planner and the lock protocol, and the shell shows which
// locks were requested, in which modes, and the chosen plan granule.
//
//	$ colockshell
//	> SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE
//	...
//	> .locks      # locks of the current transaction
//	> .commit     # commit (and release)
//	> .help
//
// Flags: -rule4prime enables authorization cooperation (the shell's
// transaction may then modify "cells" but not "effectors"); -deadlock
// selects the deadlock policy (detect, waitdie, none); -obs starts the
// observability HTTP endpoint on the given address.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"colock/internal/authz"
	"colock/internal/core"
	"colock/internal/engine"
	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/metrics"
	"colock/internal/obs"
	"colock/internal/query"
	"colock/internal/resilience"
	"colock/internal/store"
	"colock/internal/trace"
	"colock/internal/txn"
)

type shell struct {
	st     *store.Store
	eng    *engine.Engine
	exec   *query.Executor
	auth   *authz.Table
	prime  bool
	policy lock.Policy
	tx     *txn.Txn
	out    *bufio.Writer
	trace  *traceRing

	// Contention-survival state (.chaos / .storm).
	chaos    *resilience.Chaos
	chaosCfg resilience.ChaosConfig
	retry    *obs.RetryCollector

	// Auto-admission policy on the engine's health monitor (.health auto
	// on|off).
	auto *health.AutoAdmission
}

// traceRing keeps the most recent lock-manager events for the .trace
// command. It is an event sink: Record runs outside the manager's shard
// latches, so the ring only needs its own small mutex.
type traceRing struct {
	mu  sync.Mutex
	buf []lock.Event
	cap int
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{cap: capacity}
}

// Record is the lock.EventSink implementation.
func (t *traceRing) Record(e lock.Event) {
	t.mu.Lock()
	t.buf = append(t.buf, e)
	if len(t.buf) > t.cap {
		t.buf = t.buf[len(t.buf)-t.cap:]
	}
	t.mu.Unlock()
}

func (t *traceRing) snapshot() []lock.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]lock.Event(nil), t.buf...)
}

// newShell builds a fully wired shell (shared by run and the tests) over
// engine.Open's assembly — the one colockd runs — plus what only the shell
// has: the .trace ring as one more event sink, and the .storm retry
// collector. Incident dumps for deadlock victims and acquire timeouts land
// in incidentDir. A non-empty journalDir attaches the durable lock-event
// journal: every event (plus fast-path hits and SLO transitions) persists to
// append-only segments that colockreplay analyzes offline, and incident
// dumps record the journal offset for -around correlation.
func newShell(prime bool, policy lock.Policy, incidentDir, journalDir string, out *bufio.Writer) (*shell, error) {
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	auth := authz.NewTable(false)
	cfg := engine.Config{Store: st, Policy: policy, IncidentDir: incidentDir, JournalDir: journalDir}
	if prime {
		cfg.Authorizer = auth
	}
	eng, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	ring := newTraceRing(64)
	eng.Manager.AttachSink(ring)
	// SLO transitions surface in the .trace ring like any lock event.
	eng.Monitor.OnTransition(func(tr health.Transition) {
		ring.Record(lock.Event{
			Kind:     journal.KindHealth,
			At:       time.Now(),
			Resource: lock.Resource(fmt.Sprintf("%s->%s %s", tr.From, tr.To, tr.Reason)),
		})
	})
	return &shell{
		st: st, eng: eng,
		exec: query.NewExecutor(eng.Txns, core.PlannerOptions{}),
		auth: auth, prime: prime, policy: policy,
		out:   out,
		trace: ring,
		retry: obs.NewRetryCollector(),
	}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("colockshell: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the shell from flag parsing to .quit. A start-up failure comes back
// as an error AFTER the deferred engine Close has flushed and closed the
// journal; main exits on it (os.Exit runs no defers, so nothing in here may
// call log.Fatal once the shell is built).
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("colockshell", flag.ExitOnError)
	prime := fs.Bool("rule4prime", true, "enable authorization cooperation (rule 4')")
	deadlock := fs.String("deadlock", "detect", "deadlock policy: detect, waitdie or none")
	obsAddr := fs.String("obs", "", "serve the observability HTTP endpoint on this address (e.g. 127.0.0.1:8023)")
	incidents := fs.String("incidents", filepath.Join(os.TempDir(), "colockshell-incidents"),
		"directory for deadlock/timeout incident dumps (JSONL)")
	journalDir := fs.String("journal", "",
		"directory for the durable lock-event journal (analyze offline with colockreplay)")
	pprofOn := fs.Bool("pprof", false,
		"expose net/http/pprof under /debug/pprof/ on the -obs endpoint")
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	policy, err := lock.ParsePolicy(*deadlock)
	if err != nil {
		return err
	}
	s, err := newShell(*prime, policy, *incidents, *journalDir, bufio.NewWriter(stdout))
	if err != nil {
		return err
	}
	defer s.out.Flush()
	defer s.eng.Close() // .quit closes too and reports the error; this covers the error returns

	if *obsAddr != "" {
		srv, err := s.eng.ServeObs(*obsAddr, *pprofOn, s.retry.WriteMetrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(s.out, "observability endpoint on http://%s/ (/metrics, /queues, /dot, /health, /trace/...)\n", srv.Addr())
	}
	fmt.Fprintf(s.out, "incident dumps in %s\n", *incidents)
	if s.eng.Journal != nil {
		fmt.Fprintf(s.out, "journaling lock events to %s (colockreplay -dir %s)\n", *journalDir, *journalDir)
	}

	fmt.Fprintln(s.out, "colock shell over the paper's example database (Figures 1/6).")
	fmt.Fprintln(s.out, "Enter HDBL queries or .help; rule 4' is", map[bool]string{true: "ON", false: "OFF"}[*prime])
	s.repl(bufio.NewScanner(stdin))
	return nil
}

func (s *shell) repl(in *bufio.Scanner) {
	for {
		s.out.WriteString("> ")
		s.out.Flush()
		if !in.Scan() {
			s.quit()
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			s.quit()
			return
		case line == ".help":
			s.help()
		case line == ".locks":
			s.showLocks()
		case line == ".trace":
			s.showTrace()
		case line == ".spans":
			s.showSpans()
		case line == ".profile":
			s.showProfile()
		case line == ".incident":
			s.showIncidents()
		case line == ".forcetimeout":
			s.forceTimeout()
		case line == ".forcedeadlock":
			s.forceDeadlock()
		case line == ".metrics":
			s.showMetrics()
		case strings.HasPrefix(line, ".health"):
			s.healthCmd(strings.TrimSpace(strings.TrimPrefix(line, ".health")))
		case strings.HasPrefix(line, ".topk"):
			s.showTopK(strings.TrimSpace(strings.TrimPrefix(line, ".topk")))
		case strings.HasPrefix(line, ".journal"):
			s.journalCmd(strings.TrimSpace(strings.TrimPrefix(line, ".journal")))
		case strings.HasPrefix(line, ".chaos"):
			s.chaosCmd(strings.TrimSpace(strings.TrimPrefix(line, ".chaos")))
		case strings.HasPrefix(line, ".storm"):
			s.storm(strings.TrimSpace(strings.TrimPrefix(line, ".storm")))
		case strings.HasPrefix(line, ".queues"):
			s.showQueues(strings.TrimSpace(strings.TrimPrefix(line, ".queues")) == "all")
		case line == ".dot":
			s.showDOT()
		case line == ".commit":
			s.finish(true)
		case line == ".abort":
			s.finish(false)
		case line == ".db":
			s.showDB()
		case strings.HasPrefix(line, ".graph"):
			s.showGraph(strings.TrimSpace(strings.TrimPrefix(line, ".graph")))
		case strings.HasPrefix(line, ".units"):
			s.showUnits(strings.Fields(strings.TrimPrefix(line, ".units")))
		case strings.HasPrefix(line, "."):
			fmt.Fprintf(s.out, "unknown command %q (try .help)\n", line)
		case strings.HasPrefix(strings.ToUpper(line), "CREATE"):
			s.runCreate(line)
		default:
			s.runQuery(line)
		}
	}
}

func (s *shell) help() {
	fmt.Fprint(s.out, `Queries:  SELECT v FROM v IN <relation>[, w IN v.<attr>...]
          [WHERE v.<attr> = 'lit' [AND ...]] [FOR READ|FOR UPDATE] [NOFOLLOW]
          UPDATE v SET <attr> = lit[, ...] FROM ... [WHERE ...] [NOFOLLOW]
          DELETE v FROM ... [WHERE ...] [NOFOLLOW]
          INSERT INTO <relation> VALUE {attr: lit, c: SET(id: {...}), r: REF(rel, 'key')}
          CREATE RELATION <name> IN SEGMENT <seg> KEY <attr> {attr: type, ...}
Commands: .locks   show locks of the current transaction
          .trace   show recent lock-manager events (grant/wait/convert/release/victim)
          .spans   span tree of the current transaction (or recent spans)
          .profile blocked time by (resource, mode) (folded flame-graph stacks)
          .incident      list deadlock/timeout incident dumps
          .forcetimeout  run a scripted two-txn scenario ending in a lock timeout
          .forcedeadlock run a scripted two-txn ABBA deadlock (needs detect/waitdie)
          .metrics lock-manager and protocol telemetry (latencies, counters)
          .health [json|dump <path>|auto on|auto off]  SLO verdict + window series
          .topk [n]  hottest contended resources (decayed contention table)
          .journal [flush]  durable lock-event journal status (-journal dir)
          .chaos [off|victim=R timeout=R delay=R seed=N]  deterministic fault injection
          .storm [workers] [rounds]  hot-key write storm through the retry layer
          .queues [all]  live lock queues (contended only, or all)
          .dot     waits-for graph in Graphviz DOT format
          .graph <relation>       object-specific lock graph (Fig. 5)
          .units <relation> <key> unit decomposition (Fig. 6)
          .commit  commit the current transaction (releases locks)
          .abort   abort the current transaction
          .db      show the database contents
          .quit    leave
A transaction starts implicitly with the first query.
`)
}

func (s *shell) ensureTx() *txn.Txn {
	if s.tx == nil || s.tx.State() != txn.Active {
		s.tx = s.eng.Txns.Begin()
		if s.prime {
			s.auth.Grant(s.tx.ID(), "cells") // shell user may modify cells, not effectors
		}
		fmt.Fprintf(s.out, "-- began transaction %d\n", s.tx.ID())
	}
	return s.tx
}

func (s *shell) runCreate(src string) {
	stmt, err := query.ParseCreate(src)
	if err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		return
	}
	if err := stmt.Apply(s.st.Catalog()); err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(s.out, "-- created relation %s (segment %s, key %s)\n",
		stmt.Relation.Name, stmt.Relation.Segment, stmt.Relation.Key)
}

func (s *shell) runQuery(src string) {
	tx := s.ensureTx()
	before := len(s.eng.Manager.HeldLocks(tx.ID()))
	res, err := s.exec.RunStatement(tx, src)
	if err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		return
	}
	if res.Kind != query.StmtInsert {
		fmt.Fprintf(s.out, "-- %s\n", res.Plan)
	}
	for _, r := range res.Results {
		fmt.Fprintf(s.out, "%s = %s\n", r.Path, r.Value)
	}
	switch res.Kind {
	case query.StmtSelect:
		fmt.Fprintf(s.out, "-- %d result(s); new locks:\n", len(res.Results))
	default:
		fmt.Fprintf(s.out, "-- %d affected; new locks:\n", res.Affected)
	}
	held := s.eng.Manager.HeldLocks(tx.ID())
	for i := before; i < len(held); i++ {
		fmt.Fprintf(s.out, "   %-4s %s\n", held[i].Mode, held[i].Resource)
	}
}

func (s *shell) showLocks() {
	if s.tx == nil || s.tx.State() != txn.Active {
		fmt.Fprintln(s.out, "no active transaction")
		return
	}
	held := s.eng.Manager.HeldLocks(s.tx.ID())
	if len(held) == 0 {
		fmt.Fprintln(s.out, "no locks held")
		return
	}
	for _, h := range held {
		fmt.Fprintf(s.out, "%-4s %s\n", h.Mode, h.Resource)
	}
}

func (s *shell) showTrace() {
	if s.trace == nil {
		fmt.Fprintln(s.out, "tracing not enabled")
		return
	}
	evs := s.trace.snapshot()
	if len(evs) == 0 {
		fmt.Fprintln(s.out, "no lock events yet")
		return
	}
	for _, e := range evs {
		fmt.Fprintf(s.out, "%-8s txn %-3d %-4s %s\n", e.Kind, e.Txn, e.Mode, e.Resource)
	}
}

func (s *shell) showSpans() {
	if s.tx != nil && s.tx.State() == txn.Active {
		spans := s.eng.Recorder.SpansOf(s.tx.ID())
		if len(spans) == 0 {
			fmt.Fprintln(s.out, "no spans for the current transaction yet")
			return
		}
		fmt.Fprintf(s.out, "span tree of transaction %d:\n%s", s.tx.ID(), trace.Tree(spans))
		return
	}
	recent := s.eng.Recorder.Recent(32)
	if len(recent) == 0 {
		fmt.Fprintln(s.out, "no spans recorded yet (flight recorder empty)")
		return
	}
	fmt.Fprintln(s.out, "recent spans (flight recorder, oldest first):")
	for _, sp := range recent {
		fmt.Fprintf(s.out, "  txn %-3d %-20s %-4s %-12s %v\n", sp.Txn, sp.Kind, sp.Mode, sp.Resource, sp.Dur)
	}
}

func (s *shell) showProfile() {
	folded := s.eng.Monitor.Profile().FoldedStacks()
	if folded == "" {
		fmt.Fprintln(s.out, "no blocked time recorded (profile is empty)")
		return
	}
	fmt.Fprintln(s.out, "contention profile (folded stacks, flamegraph.pl-compatible):")
	fmt.Fprint(s.out, folded)
}

func (s *shell) showIncidents() {
	infos := s.eng.Incidents.Incidents()
	if len(infos) == 0 {
		fmt.Fprintln(s.out, "no incidents recorded")
		return
	}
	for _, in := range infos {
		fmt.Fprintf(s.out, "#%d %-8s txn %-3d %-4s %-24s %s\n",
			in.Seq, in.Reason, in.Txn, in.Mode, in.Resource, in.Path)
	}
}

// forceTimeout runs a self-contained two-transaction scenario ending in an
// acquire timeout: a holder takes X on cells/c1, then an older transaction
// requests the same lock with a short deadline. The timeout event makes the
// incident writer dump the blocked transaction's span tree automatically.
// (The blocked transaction is begun first so it is the older one — under
// wait-die the older requester waits rather than dying, so the scenario
// produces a timeout under every deadlock policy.)
func (s *shell) forceTimeout() {
	if s.tx != nil && s.tx.State() == txn.Active {
		fmt.Fprintln(s.out, "finish the current transaction first (.commit or .abort)")
		return
	}
	waiter := s.eng.Txns.Begin()
	holder := s.eng.Txns.Begin()
	if s.prime {
		s.auth.Grant(waiter.ID(), "cells")
		s.auth.Grant(holder.ID(), "cells")
	}
	if err := holder.LockPath(nil, store.P("cells", "c1"), lock.X); err != nil {
		fmt.Fprintf(s.out, "error: holder: %v\n", err)
		waiter.Abort()
		holder.Abort()
		return
	}
	fmt.Fprintf(s.out, "-- txn %d holds X cells/c1; txn %d requests it with a 50ms deadline\n",
		holder.ID(), waiter.ID())
	err := waiter.Lock(nil, core.DataNode(store.P("cells", "c1")), lock.X, txn.WithTimeout(50*time.Millisecond))
	fmt.Fprintf(s.out, "-- txn %d: %v\n", waiter.ID(), err)
	waiter.Abort()
	holder.Abort()
	s.showIncidents()
}

// forceDeadlock runs a self-contained two-transaction ABBA deadlock on the
// effector library (e1/e3 have no outgoing references, so the conflict stays
// on the two objects): a takes X e1, b takes X e3, a requests e3 in the
// background, and once a is queued b requests e1, closing the cycle. The
// victim event dumps an incident automatically.
func (s *shell) forceDeadlock() {
	if s.policy == lock.PolicyNone {
		fmt.Fprintln(s.out, "deadlock policy is none (the cycle would hang); restart with -deadlock detect or waitdie")
		return
	}
	if s.tx != nil && s.tx.State() == txn.Active {
		fmt.Fprintln(s.out, "finish the current transaction first (.commit or .abort)")
		return
	}
	a := s.eng.Txns.Begin()
	b := s.eng.Txns.Begin()
	if s.prime {
		s.auth.Grant(a.ID(), "effectors")
		s.auth.Grant(b.ID(), "effectors")
	}
	m := s.eng.Manager
	if err := a.LockPath(nil, store.P("effectors", "e1"), lock.X); err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		a.Abort()
		b.Abort()
		return
	}
	if err := b.LockPath(nil, store.P("effectors", "e3"), lock.X); err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		a.Abort()
		b.Abort()
		return
	}
	fmt.Fprintf(s.out, "-- txn %d holds X effectors/e1, txn %d holds X effectors/e3\n", a.ID(), b.ID())
	aDone := make(chan error, 1)
	go func() { aDone <- a.LockPath(nil, store.P("effectors", "e3"), lock.X) }()
	for i := 0; i < 2000 && m.WaitingTxns() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	errB := b.LockPath(nil, store.P("effectors", "e1"), lock.X)
	if errB != nil {
		b.Abort() // releases e3, unblocking a
	}
	errA := <-aDone
	fmt.Fprintf(s.out, "-- txn %d request for e3: %v\n", a.ID(), errA)
	fmt.Fprintf(s.out, "-- txn %d request for e1: %v\n", b.ID(), errB)
	a.Abort()
	if errB == nil {
		b.Abort()
	}
	s.showIncidents()
}

func (s *shell) showMetrics() {
	m := s.eng.Manager
	st := m.Stats()

	ops := metrics.NewTable("Lock-manager counters", "counter", "value")
	for _, c := range st.Counters() {
		ops.Addf(c.Name, c.Value)
	}
	ops.Addf("max table size", st.MaxTableSize)
	ops.Addf("active txns", m.ActiveTxns())
	ops.Addf("waiting txns", m.WaitingTxns())
	fmt.Fprint(s.out, ops)
	if snap := s.retry.Attempts(); snap.Commits+snap.GiveUps > 0 {
		fmt.Fprintf(s.out, "\nretry (all .storm runs): %s\n", s.retry)
	}

	rules := metrics.NewTable("Protocol rule applications", "rule", "count")
	for _, c := range s.eng.Protocol.Stats().Counters() {
		rules.Addf(c.Name, c.Value)
	}
	fmt.Fprintf(s.out, "\n%s", rules)

	lat := metrics.NewTable("Latencies by op, mode and unit kind",
		"op", "mode", "unit", "count", "p50", "p95", "p99", "max")
	views := s.eng.Collector.Histograms()
	for _, v := range views {
		lat.Addf(v.Op.String(), v.Mode.String(), v.Kind, v.Snap.Count,
			v.Snap.Quantile(0.50), v.Snap.Quantile(0.95), v.Snap.Quantile(0.99), v.Snap.Max)
	}
	if len(views) == 0 {
		fmt.Fprintln(s.out, "\nno latency observations yet")
		return
	}
	fmt.Fprintf(s.out, "\n%s", lat)
}

func (s *shell) showQueues(all bool) {
	qs := s.eng.Manager.SnapshotQueues()
	shown := 0
	for _, q := range qs {
		if !all && !q.Contended() {
			continue
		}
		shown++
		fmt.Fprintf(s.out, "%s (shard %d)\n", q.Resource, q.Shard)
		for _, g := range q.Granted {
			durable := ""
			if g.Durable {
				durable = " durable"
			}
			fmt.Fprintf(s.out, "  granted txn %-3d %s%s\n", g.Txn, g.Mode, durable)
		}
		for _, w := range q.Waiting {
			convert := ""
			if w.Convert {
				convert = " (conversion)"
			}
			fmt.Fprintf(s.out, "  waiting txn %-3d %s%s\n", w.Txn, w.Mode, convert)
		}
	}
	if shown == 0 {
		if all {
			fmt.Fprintln(s.out, "lock table is empty")
		} else {
			fmt.Fprintln(s.out, "no contended resources (.queues all shows every entry)")
		}
	}
}

func (s *shell) showDOT() {
	fmt.Fprint(s.out, s.eng.Manager.WaitsForDOT())
}

func (s *shell) showGraph(relation string) {
	if relation == "" {
		fmt.Fprintln(s.out, "usage: .graph <relation>")
		return
	}
	g, err := core.DeriveGraph(s.st.Catalog(), relation)
	if err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		return
	}
	fmt.Fprint(s.out, g.Render())
}

func (s *shell) showUnits(args []string) {
	if len(args) != 2 {
		fmt.Fprintln(s.out, "usage: .units <relation> <key>")
		return
	}
	nm := core.NewNamer(s.st.Catalog(), false)
	u, err := core.ComputeUnits(s.st, nm, store.P(args[0], args[1]))
	if err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(s.out, "outer unit: %d nodes\n", len(u.OuterNodes))
	for _, iu := range u.Inner {
		fmt.Fprintf(s.out, "inner unit %s (depth %d), referenced from:\n", iu.EntryPoint, iu.Depth)
		for _, r := range iu.ReferencedFrom {
			fmt.Fprintf(s.out, "  o-> %s\n", r)
		}
	}
}

func (s *shell) showDB() {
	for _, rel := range s.st.Catalog().Relations() {
		fmt.Fprintf(s.out, "relation %s:\n", rel.Name)
		for _, key := range s.st.Keys(rel.Name) {
			fmt.Fprintf(s.out, "  %s = %s\n", key, s.st.Get(rel.Name, key))
		}
	}
}

func (s *shell) finish(commit bool) {
	if s.tx == nil || s.tx.State() != txn.Active {
		fmt.Fprintln(s.out, "no active transaction")
		return
	}
	if commit {
		if err := s.tx.Commit(); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(s.out, "-- committed transaction %d\n", s.tx.ID())
	} else {
		s.tx.Abort()
		fmt.Fprintf(s.out, "-- aborted transaction %d\n", s.tx.ID())
	}
	s.tx = nil
}

// journalCmd implements .journal: bare shows the writer's status, "flush"
// forces buffered records to disk first (useful before pointing colockreplay
// at a live journal).
func (s *shell) journalCmd(arg string) {
	if s.eng.Journal == nil {
		fmt.Fprintln(s.out, "no journal attached (restart with -journal <dir>)")
		return
	}
	switch arg {
	case "":
	case "flush":
		if err := s.eng.Journal.Flush(); err != nil {
			fmt.Fprintf(s.out, "error: journal flush: %v\n", err)
			return
		}
		fmt.Fprintln(s.out, "-- journal flushed")
	default:
		fmt.Fprintln(s.out, "usage: .journal [flush]")
		return
	}
	st := s.eng.Journal.Status()
	fmt.Fprintf(s.out, "journal %s\n", st.Dir)
	fmt.Fprintf(s.out, "  segment %d of %d, %d records persisted (%d accepted, %d dropped), %d bytes\n",
		st.Segment, st.Segments, st.Records, st.Accepted, st.Dropped, st.Bytes)
	if st.Error != "" {
		fmt.Fprintf(s.out, "  WRITE ERROR: %s (journaling stopped; events are being dropped)\n", st.Error)
	}
}

func (s *shell) quit() {
	if s.tx != nil && s.tx.State() == txn.Active {
		s.tx.Abort()
		fmt.Fprintln(s.out, "-- aborted open transaction")
	}
	if err := s.eng.Close(); err != nil {
		fmt.Fprintf(s.out, "journal close: %v\n", err)
	} else if s.eng.Journal != nil {
		st := s.eng.Journal.Status()
		fmt.Fprintf(s.out, "journal closed: %d records in %s\n", st.Records, st.Dir)
	}
	fmt.Fprintln(s.out, "bye")
}
