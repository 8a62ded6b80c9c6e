package lock

// Stats are cumulative lock-manager counters. They quantify the
// "administrative overhead of locks and conflict tests" that the paper's
// qualitative evaluation argues about.
type Stats struct {
	// Requests counts every lock request: one per AcquireCtx call, one per
	// request of an AcquireBatch call.
	Requests uint64
	// Regrants counts requests already covered by a held lock (no-ops).
	Regrants uint64
	// Grants counts newly created lock-table entries.
	Grants uint64
	// Conversions counts in-place mode upgrades of existing entries.
	Conversions uint64
	// Conflicts counts requests that could not be granted immediately.
	Conflicts uint64
	// Waits counts requests that actually blocked.
	Waits uint64
	// Deadlocks counts detected deadlock cycles.
	Deadlocks uint64
	// Timeouts counts requests withdrawn because their WithTimeout
	// deadline passed.
	Timeouts uint64
	// Cancels counts requests withdrawn because their context was done.
	Cancels uint64
	// Downgrades counts in-place mode downgrades (de-escalation).
	Downgrades uint64
	// Releases counts dropped lock-table entries.
	Releases uint64
	// Sheds counts work refused by admission control: Begins shed by Admit
	// plus degrade-mode fast-fails.
	Sheds uint64
	// AdmitDelays counts Admit calls that had to stall before passing or
	// shedding (the gate was saturated when they arrived).
	AdmitDelays uint64
	// DegradedAcquires counts acquires refused fast-fail by degrade-mode
	// admission control (a subset of Sheds).
	DegradedAcquires uint64
	// InjectedFaults counts synthetic failures produced by a configured
	// fault Injector.
	InjectedFaults uint64
	// Batches counts AcquireBatch calls.
	Batches uint64
	// BatchFastGrants counts requests granted on the AcquireBatch fast path
	// (all compatible, granted under one multi-shard latch acquisition).
	BatchFastGrants uint64
	// BatchFallbacks counts AcquireBatch calls that hit a conflict and fell
	// back to the single-resource wait path for the remaining requests.
	BatchFallbacks uint64
	// SummaryFastChecks counts acquire-path grant/deny decisions answered
	// entirely by the O(1) granted-group summaries (per-mode counts, cached
	// group mode, queue-mode summary) without touching holder storage or
	// scanning the wait queue.
	SummaryFastChecks uint64
	// DeferredDetections counts blocked requests whose deadlock check was
	// armed (it runs after Options.DeadlockDefer if the request is still
	// blocked).
	DeferredDetections uint64
	// DetectorRuns counts waits-for walks actually executed, each by a
	// still-blocked waiter on its own goroutine. The gap
	// DeferredDetections−DetectorRuns is work the deferral window elided.
	DetectorRuns uint64
	// MaxTableSize is the high-water mark of granted lock-table entries.
	MaxTableSize int
}

// Counter is one named cumulative counter; the name is the op label the
// metrics endpoints print.
type Counter struct {
	Name  string
	Value uint64
}

// statFields is the one list of Stats' counters, in field order: Add, Sub
// and Counters all loop over it.
var statFields = [...]struct {
	name  string
	field func(*Stats) *uint64
}{
	{"requests", func(s *Stats) *uint64 { return &s.Requests }},
	{"regrants", func(s *Stats) *uint64 { return &s.Regrants }},
	{"grants", func(s *Stats) *uint64 { return &s.Grants }},
	{"conversions", func(s *Stats) *uint64 { return &s.Conversions }},
	{"conflicts", func(s *Stats) *uint64 { return &s.Conflicts }},
	{"waits", func(s *Stats) *uint64 { return &s.Waits }},
	{"deadlocks", func(s *Stats) *uint64 { return &s.Deadlocks }},
	{"timeouts", func(s *Stats) *uint64 { return &s.Timeouts }},
	{"cancels", func(s *Stats) *uint64 { return &s.Cancels }},
	{"downgrades", func(s *Stats) *uint64 { return &s.Downgrades }},
	{"releases", func(s *Stats) *uint64 { return &s.Releases }},
	{"sheds", func(s *Stats) *uint64 { return &s.Sheds }},
	{"admit_delays", func(s *Stats) *uint64 { return &s.AdmitDelays }},
	{"degraded_acquires", func(s *Stats) *uint64 { return &s.DegradedAcquires }},
	{"injected_faults", func(s *Stats) *uint64 { return &s.InjectedFaults }},
	{"batches", func(s *Stats) *uint64 { return &s.Batches }},
	{"batch_fast_grants", func(s *Stats) *uint64 { return &s.BatchFastGrants }},
	{"batch_fallbacks", func(s *Stats) *uint64 { return &s.BatchFallbacks }},
	{"summary_fast_checks", func(s *Stats) *uint64 { return &s.SummaryFastChecks }},
	{"deferred_detections", func(s *Stats) *uint64 { return &s.DeferredDetections }},
	{"detector_runs", func(s *Stats) *uint64 { return &s.DetectorRuns }},
}

// Counters returns every counter with its metric name, in field order
// (MaxTableSize is a gauge, not a counter, and is left out).
func (s Stats) Counters() []Counter {
	out := make([]Counter, len(statFields))
	for i, f := range statFields {
		out[i] = Counter{f.name, *f.field(&s)}
	}
	return out
}

// Add returns the field-wise sum of s and o (MaxTableSize takes the max).
func (s Stats) Add(o Stats) Stats {
	for _, f := range statFields {
		*f.field(&s) += *f.field(&o)
	}
	s.MaxTableSize = max(s.MaxTableSize, o.MaxTableSize)
	return s
}

// Sub returns the field-wise difference s−o, used to attribute counters to
// a benchmark phase. MaxTableSize is carried over from s unchanged.
func (s Stats) Sub(o Stats) Stats {
	for _, f := range statFields {
		*f.field(&s) -= *f.field(&o)
	}
	return s
}
