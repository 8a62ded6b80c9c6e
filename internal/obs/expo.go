package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"colock/internal/lock"
)

// Prometheus text exposition (version 0.0.4). Hand-rolled — the repo takes
// no dependencies — but byte-compatible with what client_golang would emit
// for the same families: counters for event kinds and manager statistics,
// summaries (quantiles + _sum/_count) for the latency histograms.

func secs(d time.Duration) float64 { return d.Seconds() }

// WriteMetrics writes the collector's counters and latency summaries in
// Prometheus text format.
func (c *Collector) WriteMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP colock_events_total Lock trace events by kind.\n")
	fmt.Fprintf(w, "# TYPE colock_events_total counter\n")
	for _, k := range eventKinds {
		fmt.Fprintf(w, "colock_events_total{kind=%q} %d\n", k, c.EventCount(k))
	}
	for op := Op(0); op < nOps; op++ {
		views := make([]HistView, 0, 8)
		for _, v := range c.Histograms() {
			if v.Op == op {
				views = append(views, v)
			}
		}
		if len(views) == 0 {
			continue
		}
		name := fmt.Sprintf("colock_%s_latency_seconds", op)
		fmt.Fprintf(w, "# HELP %s Lock %s latency by mode and lockable-unit kind.\n", name, op)
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		for _, v := range views {
			labels := fmt.Sprintf("mode=%q,unit=%q", v.Mode.String(), v.Kind)
			for _, q := range []float64{0.5, 0.95, 0.99} {
				fmt.Fprintf(w, "%s{%s,quantile=\"%g\"} %g\n", name, labels, q, secs(v.Snap.Quantile(q)))
			}
			fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, secs(v.Snap.Sum))
			fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, v.Snap.Count)
		}
	}
}

// WriteManagerMetrics writes the manager's cumulative statistics, table
// occupancy and transaction gauges in Prometheus text format.
func WriteManagerMetrics(w io.Writer, m *lock.Manager) {
	st := m.Stats()
	fmt.Fprintf(w, "# HELP colock_lock_ops_total Cumulative lock-manager operation counters.\n")
	fmt.Fprintf(w, "# TYPE colock_lock_ops_total counter\n")
	for _, kv := range statCounters(st) {
		fmt.Fprintf(w, "colock_lock_ops_total{op=%q} %d\n", kv.name, kv.val)
	}
	sizes := m.ShardSizes()
	total := 0
	for _, n := range sizes {
		total += n
	}
	fmt.Fprintf(w, "# HELP colock_table_entries Live lock-table entries.\n")
	fmt.Fprintf(w, "# TYPE colock_table_entries gauge\n")
	fmt.Fprintf(w, "colock_table_entries %d\n", total)
	fmt.Fprintf(w, "# HELP colock_table_entries_max High-water mark of granted lock-table entries.\n")
	fmt.Fprintf(w, "# TYPE colock_table_entries_max gauge\n")
	fmt.Fprintf(w, "colock_table_entries_max %d\n", st.MaxTableSize)
	fmt.Fprintf(w, "# HELP colock_shard_entries Live lock-table entries per shard.\n")
	fmt.Fprintf(w, "# TYPE colock_shard_entries gauge\n")
	for i, n := range sizes {
		fmt.Fprintf(w, "colock_shard_entries{shard=\"%d\"} %d\n", i, n)
	}
	fmt.Fprintf(w, "# HELP colock_active_txns Transactions currently holding locks.\n")
	fmt.Fprintf(w, "# TYPE colock_active_txns gauge\n")
	fmt.Fprintf(w, "colock_active_txns %d\n", m.ActiveTxns())
	fmt.Fprintf(w, "# HELP colock_waiting_txns Transactions blocked on a lock request.\n")
	fmt.Fprintf(w, "# TYPE colock_waiting_txns gauge\n")
	fmt.Fprintf(w, "colock_waiting_txns %d\n", m.WaitingTxns())
}

type statKV struct {
	name string
	val  uint64
}

func statCounters(st lock.Stats) []statKV {
	return []statKV{
		{"requests", st.Requests},
		{"regrants", st.Regrants},
		{"grants", st.Grants},
		{"conversions", st.Conversions},
		{"conflicts", st.Conflicts},
		{"waits", st.Waits},
		{"deadlocks", st.Deadlocks},
		{"timeouts", st.Timeouts},
		{"cancels", st.Cancels},
		{"downgrades", st.Downgrades},
		{"releases", st.Releases},
		{"batches", st.Batches},
		{"batch_fast_grants", st.BatchFastGrants},
		{"batch_fallbacks", st.BatchFallbacks},
		{"summary_fast_checks", st.SummaryFastChecks},
		{"deferred_detections", st.DeferredDetections},
		{"detector_runs", st.DetectorRuns},
	}
}

// WriteQueuesJSON writes the live queue snapshot as JSON.
func WriteQueuesJSON(w io.Writer, m *lock.Manager, contendedOnly bool) error {
	type grantJSON struct {
		Txn     uint64 `json:"txn"`
		Mode    string `json:"mode"`
		Durable bool   `json:"durable,omitempty"`
		Seq     uint64 `json:"seq"`
	}
	type waitJSON struct {
		Txn     uint64 `json:"txn"`
		Mode    string `json:"mode"`
		Convert bool   `json:"convert,omitempty"`
		Durable bool   `json:"durable,omitempty"`
		WaitNS  int64  `json:"wait_ns,omitempty"`
	}
	type queueJSON struct {
		Resource string      `json:"resource"`
		Shard    int         `json:"shard"`
		Granted  []grantJSON `json:"granted"`
		Waiting  []waitJSON  `json:"waiting,omitempty"`
	}
	qs := m.SnapshotQueues()
	out := make([]queueJSON, 0, len(qs))
	now := time.Now()
	for _, q := range qs {
		if contendedOnly && !q.Contended() {
			continue
		}
		qj := queueJSON{Resource: string(q.Resource), Shard: q.Shard}
		for _, g := range q.Granted {
			qj.Granted = append(qj.Granted, grantJSON{Txn: uint64(g.Txn), Mode: g.Mode.String(), Durable: g.Durable, Seq: g.Seq})
		}
		for _, wt := range q.Waiting {
			wj := waitJSON{Txn: uint64(wt.Txn), Mode: wt.Mode.String(), Convert: wt.Convert, Durable: wt.Durable}
			if !wt.Since.IsZero() {
				wj.WaitNS = now.Sub(wt.Since).Nanoseconds()
			}
			qj.Waiting = append(qj.Waiting, wj)
		}
		out = append(out, qj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Resource < out[j].Resource })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
