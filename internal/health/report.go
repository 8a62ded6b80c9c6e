package health

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// WindowView is the JSON shape of one window.
type WindowView struct {
	Epoch     int64             `json:"epoch"`
	Start     time.Time         `json:"start"`
	Counts    map[string]uint64 `json:"counts"`
	AbortRate float64           `json:"abort_rate"`
	WaitCount uint64            `json:"wait_count"`
	WaitP50Ms float64           `json:"wait_p50_ms"`
	WaitP95Ms float64           `json:"wait_p95_ms"`
	WaitP99Ms float64           `json:"wait_p99_ms"`
	WaitMaxMs float64           `json:"wait_max_ms"`
}

func viewOf(ws WindowStats) WindowView {
	v := WindowView{
		Epoch:     ws.Epoch,
		Start:     ws.Start,
		Counts:    make(map[string]uint64, int(nRates)),
		AbortRate: ws.AbortRate(),
		WaitCount: ws.WaitCount,
		WaitP50Ms: ms(ws.WaitP50),
		WaitP95Ms: ms(ws.WaitP95),
		WaitP99Ms: ms(ws.WaitP99),
		WaitMaxMs: ms(ws.WaitMax),
	}
	for r := Rate(0); r < nRates; r++ {
		v.Counts[r.String()] = ws.Counts[r]
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TopKView is the JSON shape of one hot-resource row.
type TopKView struct {
	Resource string `json:"resource"`
	Mode     string `json:"mode"`
	Count    uint64 `json:"count"`
	MaxErr   uint64 `json:"max_err"`
}

// SLOView is the JSON shape of the configured thresholds.
type SLOView struct {
	MaxAbortRate   float64 `json:"max_abort_rate"`
	MaxWaitP99Ms   float64 `json:"max_wait_p99_ms"`
	MaxWaiterDepth int     `json:"max_waiter_depth"`
	WarnAfter      int     `json:"warn_after"`
	CritAfter      int     `json:"crit_after"`
	RecoverAfter   int     `json:"recover_after"`
}

// GrantPathView is the JSON shape of the manager's grant-path counters:
// how often the O(1) summaries answered the grant decision, and how much
// deadlock-walk work the deferral window elided.
type GrantPathView struct {
	SummaryFastChecks  uint64 `json:"summary_fast_checks"`
	DeferredDetections uint64 `json:"deferred_detections"`
	DetectorRuns       uint64 `json:"detector_runs"`
	// WalksElided = DeferredDetections − DetectorRuns: blocked requests
	// whose wait resolved inside the deferral window, costing no graph walk.
	WalksElided uint64 `json:"walks_elided"`
}

// Report is the full health verdict served on /health and printed by the
// colockshell .health command: state + streaks, the retained window series
// (oldest first), the still-open window, and the top-K hot resources.
type Report struct {
	State        string         `json:"state"`
	Reason       string         `json:"reason,omitempty"`
	BreachStreak int            `json:"breach_streak"`
	CleanStreak  int            `json:"clean_streak"`
	WaiterDepth  int            `json:"waiter_depth"`
	Epoch        int64          `json:"epoch"`
	WindowMs     float64        `json:"window_ms"`
	SLO          SLOView        `json:"slo"`
	GrantPath    *GrantPathView `json:"grant_path,omitempty"`
	Windows      []WindowView   `json:"windows"`
	Current      WindowView     `json:"current"`
	TopK         []TopKView     `json:"topk"`
}

// Report assembles the verdict with up to n retained windows and top-K rows
// (n <= 0 means all retained windows and 10 rows). It does not advance the
// clock; call Advance first if the report should grade up to now.
func (m *Monitor) Report(n int) Report {
	topn := n
	if topn <= 0 {
		topn = 10
	}
	m.mu.Lock()
	rep := Report{
		State:        m.slo.state.String(),
		Reason:       m.slo.lastReason,
		BreachStreak: m.slo.breachStreak,
		CleanStreak:  m.slo.cleanStreak,
		WaiterDepth:  m.lastDepth,
		Epoch:        m.cur.Load(),
		WindowMs:     ms(m.winDur),
		SLO: SLOView{
			MaxAbortRate:   m.slo.cfg.MaxAbortRate,
			MaxWaitP99Ms:   ms(m.slo.cfg.MaxWaitP99),
			MaxWaiterDepth: m.slo.cfg.MaxWaiterDepth,
			WarnAfter:      m.slo.cfg.WarnAfter,
			CritAfter:      m.slo.cfg.CritAfter,
			RecoverAfter:   m.slo.cfg.RecoverAfter,
		},
	}
	wins := append([]WindowStats(nil), m.closed...)
	m.mu.Unlock()
	if m.grantPath != nil {
		st := m.grantPath()
		gp := &GrantPathView{
			SummaryFastChecks:  st.SummaryFastChecks,
			DeferredDetections: st.DeferredDetections,
			DetectorRuns:       st.DetectorRuns,
		}
		if st.DeferredDetections > st.DetectorRuns {
			gp.WalksElided = st.DeferredDetections - st.DetectorRuns
		}
		rep.GrantPath = gp
	}
	if n > 0 && len(wins) > n {
		wins = wins[len(wins)-n:]
	}
	rep.Windows = make([]WindowView, 0, len(wins))
	for _, ws := range wins {
		rep.Windows = append(rep.Windows, viewOf(ws))
	}
	rep.Current = viewOf(m.Current())
	for _, e := range m.prof.TopK(topn) {
		rep.TopK = append(rep.TopK, TopKView{
			Resource: string(e.Resource), Mode: e.Mode, Count: e.Count, MaxErr: e.MaxErr,
		})
	}
	return rep
}

// WriteJSON writes the Report (all retained windows) as indented JSON.
func (m *Monitor) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Report(0))
}

// WriteMetrics appends the health gauges in Prometheus text format; the
// engine's /metrics (engine.Engine.Handler) writes them after the collector,
// manager and protocol series. Gauges cover the verdict, the streaks, the
// last CLOSED window's rates (stable between polls, unlike the partial
// current window), and the top-10 hot resources.
func (m *Monitor) WriteMetrics(w io.Writer) {
	m.mu.Lock()
	state := m.slo.state
	breach, clean := m.slo.breachStreak, m.slo.cleanStreak
	depth := m.lastDepth
	var last WindowStats
	haveLast := len(m.closed) > 0
	if haveLast {
		last = m.closed[len(m.closed)-1]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP colock_health_state Current SLO verdict (0=ok, 1=warn, 2=critical).\n")
	fmt.Fprintf(w, "# TYPE colock_health_state gauge\n")
	fmt.Fprintf(w, "colock_health_state %d\n", int(state))
	fmt.Fprintf(w, "# HELP colock_health_breach_streak Consecutive SLO-breaching windows.\n")
	fmt.Fprintf(w, "# TYPE colock_health_breach_streak gauge\n")
	fmt.Fprintf(w, "colock_health_breach_streak %d\n", breach)
	fmt.Fprintf(w, "# HELP colock_health_clean_streak Consecutive clean windows.\n")
	fmt.Fprintf(w, "# TYPE colock_health_clean_streak gauge\n")
	fmt.Fprintf(w, "colock_health_clean_streak %d\n", clean)
	fmt.Fprintf(w, "# HELP colock_health_waiter_depth Blocked transactions at the last window close.\n")
	fmt.Fprintf(w, "# TYPE colock_health_waiter_depth gauge\n")
	fmt.Fprintf(w, "colock_health_waiter_depth %d\n", depth)

	fmt.Fprintf(w, "# HELP colock_health_window_events Event counts of the last closed health window.\n")
	fmt.Fprintf(w, "# TYPE colock_health_window_events gauge\n")
	for r := Rate(0); r < nRates; r++ {
		var c uint64
		if haveLast {
			c = last.Counts[r]
		}
		fmt.Fprintf(w, "colock_health_window_events{rate=%q} %d\n", r.String(), c)
	}
	fmt.Fprintf(w, "# HELP colock_health_window_abort_rate Aborted fraction of the last closed window.\n")
	fmt.Fprintf(w, "# TYPE colock_health_window_abort_rate gauge\n")
	fmt.Fprintf(w, "colock_health_window_abort_rate %g\n", last.AbortRate())
	fmt.Fprintf(w, "# HELP colock_health_window_wait_p99_seconds p99 wait latency of the last closed window.\n")
	fmt.Fprintf(w, "# TYPE colock_health_window_wait_p99_seconds gauge\n")
	fmt.Fprintf(w, "colock_health_window_wait_p99_seconds %g\n", last.WaitP99.Seconds())

	fmt.Fprintf(w, "# HELP colock_health_hot_count Decayed contention count of the top-10 hot resources.\n")
	fmt.Fprintf(w, "# TYPE colock_health_hot_count gauge\n")
	for _, e := range m.prof.TopK(10) {
		fmt.Fprintf(w, "colock_health_hot_count{resource=\"%s\",mode=\"%s\"} %d\n",
			labelEscape(string(e.Resource)), e.Mode, e.Count)
	}
}

// labelEscape keeps resource names inside Prometheus label-value grammar.
func labelEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer("\\", "\\\\", "\"", "\\\"", "\n", "\\n")
	return r.Replace(s)
}
