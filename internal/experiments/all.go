package experiments

import (
	"time"

	"colock/internal/metrics"
)

// Experiment is one entry of the suite: its id and its runner, which takes
// the small scale (seconds, not minutes; figures -quick and the tests) or
// the scale EXPERIMENTS.md was recorded at.
type Experiment struct {
	ID  string
	Run func(quick bool) *metrics.Table
}

// pick selects a parameter by scale.
func pick[T any](quick bool, small, full T) T {
	if quick {
		return small
	}
	return full
}

// All is the suite in presentation order; cmd/figures -e prints its tables.
var All = []Experiment{
	{"E1", func(q bool) *metrics.Table { return E1Fig7Concurrency(pick(q, 20, 200)) }},
	{"E2", func(q bool) *metrics.Table {
		return E2Granularity(pick(q, 8, 16), pick(q, 50, 200), pick(q, 200*time.Microsecond, 500*time.Microsecond))
	}},
	{"E3", func(q bool) *metrics.Table { return E3SharedXLock(pick(q, []int{2, 8, 32}, []int{2, 8, 32, 128})) }},
	{"E4", func(q bool) *metrics.Table { return E4FromTheSide(pick(q, 10, 50)) }},
	{"E5", func(q bool) *metrics.Table {
		return E5Authorization(pick(q, []int{4, 16}, []int{4, 16, 64}), pick(q, 200*time.Microsecond, 500*time.Microsecond))
	}},
	{"E6", func(q bool) *metrics.Table {
		return E6Escalation(pick(q, 200, 500), pick(q, []float64{0.05, 0.25, 0.5, 1.0}, []float64{0.02, 0.1, 0.25, 0.5, 0.75, 1.0}))
	}},
	{"E7", func(q bool) *metrics.Table {
		return E7LongTransactions(pick(q, 8, 16), pick(q, 30*time.Millisecond, 100*time.Millisecond))
	}},
	{"E8", func(q bool) *metrics.Table { return E8DisjointOverhead(pick(q, 16, 64), pick(q, 4, 6)) }},
	{"E9", func(q bool) *metrics.Table {
		return E9BenefitSweep(pick(q, []int{1, 2, 3, 4}, []int{1, 2, 3, 4, 5}), pick(q, 30*time.Millisecond, 60*time.Millisecond))
	}},
	{"E10", func(q bool) *metrics.Table {
		return E10DeEscalation(pick(q, 8, 16), pick(q, 30*time.Millisecond, 100*time.Millisecond))
	}},
	{"E11", func(q bool) *metrics.Table { return E11BLUCoalescing(pick(q, 16, 64)) }},
	{"E12", func(q bool) *metrics.Table {
		return E12RecursiveClosure(pick(q, []int{2, 8, 32}, []int{2, 8, 32, 128}))
	}},
	{"E13", func(q bool) *metrics.Table { return E13DeadlockPolicy(pick(q, 4, 8), pick(q, 15, 40)) }},
}
