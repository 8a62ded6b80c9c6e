// Command bench is colock's one repeatable benchmark: four closed-loop
// workloads, eight end-to-end metrics, and a traced run that gives every
// layer on the transaction path its own numbers. BENCHMARK.json at the
// repository root names the command, workloads, metrics and bounds;
// README.md in this directory explains them.
//
// One invocation runs one workload in one process:
//
//	bash bench/run.sh --workload embed_disjoint --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// setupRounds is how often set-up is repeated; setup_s is the median.
	setupRounds = 3
	// tracedTxns bounds the traced window: every transaction in it records
	// spansPerTxn spans, kept in memory until exit.
	tracedTxns = 20000
	// spansPerTxn: a txn root, begin, ten locks, commit.
	spansPerTxn = 13
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_us", "us"},
	{"cpu_us_per_txn", "us"},
	{"allocs_per_txn", "count"},
	{"peak_rss_mb", "MB"},
	{"attempts_per_commit", "ratio"},
}

var perLayer = []metricDef{
	{"core.namer_us_per_txn", "us"},
	{"core.namer_allocs_per_txn", "count"},
	{"core.protocol_self_us_per_txn", "us"},
	{"core.fastpath_hit_ratio", "ratio"},
	{"core.manager_requests_per_txn", "count"},
	{"core.entry_scans_per_txn", "count"},
	{"core.entry_scan_us_per_txn", "us"},
	{"core.downward_locks_per_txn", "count"},
	{"core.rule4prime_weakened_per_txn", "count"},
	{"core.batched_lock_ratio", "ratio"},
	{"lock.us_per_txn", "us"},
	{"lock.allocs_per_txn", "count"},
	{"lock.grants_per_txn", "count"},
	{"lock.conflicts_per_txn", "count"},
	{"lock.waits_per_txn", "count"},
	{"lock.batch_fallback_ratio", "ratio"},
	{"lock.deadlocks", "count"},
	{"lock.max_table_size", "count"},
	{"txn.self_us_per_txn", "us"},
	{"txn.begin_us", "us"},
	{"txn.commit_us", "us"},
	{"sinks.events_per_txn", "count"},
	{"sinks.total_us_per_txn", "us"},
	{"sinks.unattributed_us_per_txn", "us"},
	{"obs.collector_us_per_txn", "us"},
	{"trace.recorder_us_per_txn", "us"},
	{"trace.profile_us_per_txn", "us"},
	{"trace.incident_us_per_txn", "us"},
	{"health.monitor_us_per_txn", "us"},
	{"journal.writer_us_per_txn", "us"},
	{"journal.bytes_per_txn", "B"},
	{"journal.dropped_share", "ratio"},
	{"wire.codec_us_per_txn", "us"},
	{"wire.frames_per_txn", "count"},
	{"wire.bytes_per_txn", "B"},
	{"wire.allocs_per_txn", "count"},
	{"net.round_trips_per_txn", "count"},
	{"net.socket_us_per_txn", "us"},
	{"net.dispatch_self_us_per_txn", "us"},
	{"net.begin_rtt_p50_us", "us"},
	{"net.lock_rtt_p50_us", "us"},
	{"net.commit_rtt_p50_us", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"host.spin_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
	{"diag.txn_p95_us", "us"},
	{"diag.txn_p99_us", "us"},
	{"diag.txn_p999_us", "us"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	trace   bool
	workdir string
	start   time.Time

	// Sizes, fixed by main; the smoke tests shrink them.
	rounds     int // set-up repetitions of an untraced run
	ring       int // scripts per client
	tracedTxns int // transactions in the traced window
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run: embed_disjoint, observed_disjoint, embed_shared or net_disjoint")
	seed := flag.Int64("seed", 1, "seed for the database, the partitions and the scripts")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the temp journal and the span files (inside the checkout)")
	flag.Parse()
	spec, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (one of the four), -seconds > 0 and no other arguments\n")
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	cfg := config{spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0, workdir: *workdir, start: start,
		rounds: setupRounds, ring: ringSize, tracedTxns: tracedTxns}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setUp builds the workload's engine and clients and runs the fixed-count
// warm-up, which is part of set-up: caches fill and lazy initialisation
// finishes before anything is timed.
func setUp(cfg config) (*engine, []*clientState, error) {
	e, err := newEngine(cfg.spec, cfg.seed, cfg.workdir)
	if err != nil {
		return nil, nil, err
	}
	var w *witness
	if cfg.spec.shared {
		w = &witness{}
	}
	clients := make([]*clientState, cfg.spec.clients)
	for i, s := range e.sessions() {
		ring, err := genScripts(e.st, cfg.seed, i, cfg.spec.clients, cfg.spec.shared, cfg.ring)
		if err != nil {
			_ = e.close(false)
			return nil, nil, err
		}
		clients[i] = &clientState{sess: s, ring: ring, witness: w}
	}
	warm := runWindow(clients, uint64(cfg.spec.warmup/cfg.spec.clients), 0)
	if warm.failed != 0 || warm.commits == 0 {
		_ = e.close(false)
		return nil, nil, fmt.Errorf("warm-up: %d of %d transactions failed", warm.failed, warm.attempted)
	}
	return e, clients, nil
}

func run(cfg config) (*result, error) {
	rounds := cfg.rounds
	if cfg.trace {
		rounds = 1
	}
	var (
		e       *engine
		clients []*clientState
		setups  []float64
	)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		} else {
			// Each round starts from the same heap, with the previous
			// round's engine stopped.
			if err := e.close(false); err != nil {
				return nil, err
			}
			e, clients = nil, nil
			runtime.GC()
		}
		var err error
		if e, clients, err = setUp(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	out := &report{cfg: cfg, values: map[string]float64{}}
	out.values["setup_s"] = median(setups)
	var werr error
	if cfg.trace {
		werr = tracedRun(cfg, e, clients, out)
	} else {
		werr = out.measure(e, clients, time.Duration(cfg.seconds*float64(time.Second)))
	}
	// Read before the exit checks: re-reading the journal is the harness's
	// memory, not the engine's.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mb"] = rss
	if cerr := out.finish(e); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}
	return out.print(), nil
}

// report collects metric values and failed output checks for one run.
type report struct {
	cfg       config
	values    map[string]float64
	failures  []string
	attempted uint64
	failed    uint64
	disturbed bool
	samples   uint64
}

func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs the untraced window between two counter snapshots and two
// canary readings, fills in its metrics and runs its output checks.
func (r *report) measure(e *engine, clients []*clientState, dur time.Duration) error {
	spin0 := spinNs()
	s0, err := takeSnapshot(e)
	if err != nil {
		return err
	}
	w := runWindow(clients, 0, dur)
	s1, err := takeSnapshot(e)
	if err != nil {
		return err
	}
	r.canary(spin0, spinNs())
	r.window(w, s0, s1)
	r.check(w, s0, s1)
	return nil
}

// window turns one measured window into the end-to-end metrics and the
// counted per-layer metrics.
func (r *report) window(w *windowResult, s0, s1 *snapshot) {
	r.attempted, r.failed, r.samples = w.attempted, w.failed, w.lat.n
	commits := float64(w.commits)
	v := r.values
	v["txn_per_s"] = ratio(commits, w.elapsed.Seconds())
	v["txn_p50_us"] = w.lat.quantile(0.50) / 1e3
	v["diag.txn_p95_us"] = w.lat.quantile(0.95) / 1e3
	v["diag.txn_p99_us"] = w.lat.quantile(0.99) / 1e3
	v["diag.txn_p999_us"] = w.lat.quantile(0.999) / 1e3
	v["cpu_us_per_txn"] = ratio(float64(s1.cpu-s0.cpu)/1e3, commits)
	v["allocs_per_txn"] = ratio(float64(s1.mallocs-s0.mallocs), commits)
	v["attempts_per_commit"] = ratio(float64(w.begins), commits)

	ls, ps := s1.lock.Sub(s0.lock), s1.proto
	hits := float64(ps.FastPathHits - s0.proto.FastPathHits)
	mgrReq := float64(ls.Requests)
	v["core.fastpath_hit_ratio"] = ratio(hits, hits+mgrReq)
	v["core.manager_requests_per_txn"] = ratio(mgrReq, commits)
	v["core.entry_scans_per_txn"] = ratio(float64(ps.EntryPointScans-s0.proto.EntryPointScans), commits)
	v["core.downward_locks_per_txn"] = ratio(float64(ps.DownwardPropagations-s0.proto.DownwardPropagations), commits)
	v["core.rule4prime_weakened_per_txn"] = ratio(float64(ps.Rule4PrimeWeakened-s0.proto.Rule4PrimeWeakened), commits)
	v["core.batched_lock_ratio"] = ratio(float64(ps.BatchedLocks-s0.proto.BatchedLocks), mgrReq)
	v["lock.grants_per_txn"] = ratio(float64(ls.Grants), commits)
	v["lock.conflicts_per_txn"] = ratio(float64(ls.Conflicts), commits)
	v["lock.waits_per_txn"] = ratio(float64(ls.Waits), commits)
	v["lock.batch_fallback_ratio"] = ratio(float64(ls.BatchFallbacks), float64(ls.Batches))
	v["lock.deadlocks"] = float64(s1.lock.Deadlocks)
	v["lock.max_table_size"] = float64(s1.lock.MaxTableSize)
	v["runtime.gc_cpu_share"] = ratio(s1.gcCPU-s0.gcCPU, s1.totalCPU-s0.totalCPU)
	v["runtime.gc_cycles_per_s"] = ratio(float64(s1.gcCycles-s0.gcCycles), w.elapsed.Seconds())
	if r.cfg.spec.sinks {
		accepted := float64(s1.journal.Accepted - s0.journal.Accepted)
		dropped := float64(s1.journal.Dropped - s0.journal.Dropped)
		v["journal.bytes_per_txn"] = ratio(float64(s1.journal.Bytes-s0.journal.Bytes), commits)
		v["journal.dropped_share"] = ratio(dropped, accepted+dropped)
	}
	if r.cfg.spec.net {
		read := float64(s1.framesRead - s0.framesRead)
		v["net.round_trips_per_txn"] = ratio(read, commits)
		v["wire.frames_per_txn"] = ratio(read+float64(s1.framesWritten-s0.framesWritten), commits)
	}
}

// canary reports the host spin kernel; a run whose canary moved by more
// than 15 % across the window is marked disturbed. Nothing is normalised.
func (r *report) canary(before, after float64) {
	r.values["host.spin_ns"] = (before + after) / 2
	r.disturbed = math.Abs(after-before) > 0.15*before
}

// print writes every metric by name and unit, the summary object, and
// returns the contract line's content.
func (r *report) print() *result {
	cfg := r.cfg
	defs, kind := endToEnd, "end_to_end"
	if cfg.trace {
		defs, kind = perLayer, "per_layer"
	}
	fmt.Printf("# colock bench: workload=%s clients=%d seed=%d seconds=%g trace=%v\n",
		cfg.spec.name, cfg.spec.clients, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# host: nproc=%d gomaxprocs=%d %s %s/%s disturbed=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, r.disturbed)
	fmt.Printf("# latency samples: %d (p95 has %d samples beyond it)\n", r.samples, r.samples/20)
	res := &result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
		fmt.Printf("%-36s %14.4f %s\n", d.name, r.values[d.name], d.unit)
	}
	// Whatever else the run measured (the other table's counts, the cut
	// totals) is printed for the reader, not for the driver.
	var extra []string
	for name := range r.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("# also: %-34s %14.4f\n", name, r.values[name])
	}
	for _, f := range r.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	b, _ := json.Marshal(struct {
		Workload       string  `json:"workload"`
		Kind           string  `json:"kind"`
		Seed           int64   `json:"seed"`
		Seconds        float64 `json:"seconds"`
		Clients        int     `json:"clients"`
		Nproc          int     `json:"nproc"`
		Gomaxprocs     int     `json:"gomaxprocs"`
		Go             string  `json:"go"`
		LatencySamples uint64  `json:"latency_samples"`
		Disturbed      bool    `json:"disturbed"`
		ChecksFailed   int     `json:"checks_failed"`
		// No performance claim: this benchmark is the measuring stick.
		Claim *string `json:"claim"`
	}{cfg.spec.name, kind, cfg.seed, cfg.seconds, cfg.spec.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), r.samples, r.disturbed, len(r.failures), nil})
	fmt.Printf("%s\n", b)
	return res
}

func spanFile(cfg config) string {
	return filepath.Join(cfg.workdir, "trace", cfg.spec.name+".jsonl")
}
