package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// attemptBuckets is the size of the attempts-per-commit histogram: buckets
// 1..attemptBuckets-1 count commits that took exactly that many attempts;
// the last bucket collects everything beyond.
const attemptBuckets = 17

// RetryCollector aggregates retry outcomes: retries by cause, commits and
// give-ups, and a histogram of attempts-per-commit — the Thomasian-style
// "how many restarts does a commit cost" distribution that quantifies
// contention-survival overhead the way the latency histograms quantify
// waiting. It implements resilience.Observer (by shape — obs stays
// dependency-free of the resilience package) and is safe for concurrent use
// by every worker sharing one Retrier.
type RetryCollector struct {
	mu      sync.Mutex
	retries map[string]uint64 // cause label → count

	commits  atomic.Uint64
	giveUps  atomic.Uint64
	attempts [attemptBuckets]atomic.Uint64 // attempts-per-commit histogram
	sum      atomic.Uint64                 // total attempts across commits
	max      atomic.Uint64                 // worst attempts-per-commit seen
}

// NewRetryCollector builds an empty collector.
func NewRetryCollector() *RetryCollector {
	return &RetryCollector{retries: make(map[string]uint64)}
}

// Retry records one failed-then-retried attempt with its cause label.
func (rc *RetryCollector) Retry(cause string, attempt int) {
	rc.mu.Lock()
	rc.retries[cause]++
	rc.mu.Unlock()
}

// Done records a finished Retrier.Run: a commit (err == nil) lands in the
// attempts-per-commit histogram, a give-up only in the give-up counter.
func (rc *RetryCollector) Done(attempts int, err error) {
	if err != nil {
		rc.giveUps.Add(1)
		return
	}
	rc.commits.Add(1)
	rc.sum.Add(uint64(attempts))
	b := attempts
	if b < 1 {
		b = 1
	}
	if b >= attemptBuckets {
		b = attemptBuckets - 1
	}
	rc.attempts[b].Add(1)
	for {
		cur := rc.max.Load()
		if uint64(attempts) <= cur || rc.max.CompareAndSwap(cur, uint64(attempts)) {
			break
		}
	}
}

// Retries returns the per-cause retry counts.
func (rc *RetryCollector) Retries() map[string]uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make(map[string]uint64, len(rc.retries))
	for k, v := range rc.retries {
		out[k] = v
	}
	return out
}

// AttemptsSnapshot is a point-in-time view of the attempts-per-commit
// distribution.
type AttemptsSnapshot struct {
	Commits uint64
	GiveUps uint64
	Sum     uint64 // total attempts across commits
	Max     uint64
	// Buckets[i] counts commits that took exactly i attempts (i ≥ 1); the
	// last bucket collects 17+.
	Buckets [attemptBuckets]uint64
}

// Mean is the average attempts-per-commit (0 when nothing committed).
func (s AttemptsSnapshot) Mean() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Commits)
}

// Attempts snapshots the attempts-per-commit histogram.
func (rc *RetryCollector) Attempts() AttemptsSnapshot {
	var s AttemptsSnapshot
	s.Commits = rc.commits.Load()
	s.GiveUps = rc.giveUps.Load()
	s.Sum = rc.sum.Load()
	s.Max = rc.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = rc.attempts[i].Load()
	}
	return s
}

// WriteMetrics appends the retry families in Prometheus text format; wire
// it into engine.Engine.ServeObs's extra writers. Causes are emitted in sorted order so
// successive scrapes diff cleanly.
func (rc *RetryCollector) WriteMetrics(w io.Writer) {
	retries := rc.Retries()
	causes := make([]string, 0, len(retries))
	for c := range retries {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	fmt.Fprintf(w, "# HELP colock_retries_total Failed-then-retried attempts by cause.\n")
	fmt.Fprintf(w, "# TYPE colock_retries_total counter\n")
	for _, c := range causes {
		fmt.Fprintf(w, "colock_retries_total{cause=%q} %d\n", c, retries[c])
	}
	s := rc.Attempts()
	fmt.Fprintf(w, "# HELP colock_retry_commits_total Retrier runs that committed.\n")
	fmt.Fprintf(w, "# TYPE colock_retry_commits_total counter\n")
	fmt.Fprintf(w, "colock_retry_commits_total %d\n", s.Commits)
	fmt.Fprintf(w, "# HELP colock_retry_giveups_total Retrier runs that exhausted their attempts.\n")
	fmt.Fprintf(w, "# TYPE colock_retry_giveups_total counter\n")
	fmt.Fprintf(w, "colock_retry_giveups_total %d\n", s.GiveUps)
	fmt.Fprintf(w, "# HELP colock_retry_attempts_per_commit Attempts-per-commit distribution.\n")
	fmt.Fprintf(w, "# TYPE colock_retry_attempts_per_commit summary\n")
	fmt.Fprintf(w, "colock_retry_attempts_per_commit_sum %d\n", s.Sum)
	fmt.Fprintf(w, "colock_retry_attempts_per_commit_count %d\n", s.Commits)
	fmt.Fprintf(w, "# HELP colock_retry_attempts_max Worst attempts-per-commit observed.\n")
	fmt.Fprintf(w, "# TYPE colock_retry_attempts_max gauge\n")
	fmt.Fprintf(w, "colock_retry_attempts_max %d\n", s.Max)
}

// String renders a one-paragraph summary for shells and incident dumps.
func (rc *RetryCollector) String() string {
	s := rc.Attempts()
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d give-ups=%d mean-attempts=%.2f max-attempts=%d",
		s.Commits, s.GiveUps, s.Mean(), s.Max)
	retries := rc.Retries()
	if len(retries) > 0 {
		causes := make([]string, 0, len(retries))
		for c := range retries {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		b.WriteString(" retries:")
		for _, c := range causes {
			fmt.Fprintf(&b, " %s=%d", c, retries[c])
		}
	}
	return b.String()
}
