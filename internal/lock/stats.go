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

// Add returns the field-wise sum of s and o (MaxTableSize takes the max).
func (s Stats) Add(o Stats) Stats {
	s.Requests += o.Requests
	s.Regrants += o.Regrants
	s.Grants += o.Grants
	s.Conversions += o.Conversions
	s.Conflicts += o.Conflicts
	s.Waits += o.Waits
	s.Deadlocks += o.Deadlocks
	s.Timeouts += o.Timeouts
	s.Cancels += o.Cancels
	s.Downgrades += o.Downgrades
	s.Releases += o.Releases
	s.Sheds += o.Sheds
	s.AdmitDelays += o.AdmitDelays
	s.DegradedAcquires += o.DegradedAcquires
	s.InjectedFaults += o.InjectedFaults
	s.Batches += o.Batches
	s.BatchFastGrants += o.BatchFastGrants
	s.BatchFallbacks += o.BatchFallbacks
	s.SummaryFastChecks += o.SummaryFastChecks
	s.DeferredDetections += o.DeferredDetections
	s.DetectorRuns += o.DetectorRuns
	if o.MaxTableSize > s.MaxTableSize {
		s.MaxTableSize = o.MaxTableSize
	}
	return s
}

// Sub returns the field-wise difference s−o, used to attribute counters to
// a benchmark phase. MaxTableSize is carried over from s unchanged.
func (s Stats) Sub(o Stats) Stats {
	s.Requests -= o.Requests
	s.Regrants -= o.Regrants
	s.Grants -= o.Grants
	s.Conversions -= o.Conversions
	s.Conflicts -= o.Conflicts
	s.Waits -= o.Waits
	s.Deadlocks -= o.Deadlocks
	s.Timeouts -= o.Timeouts
	s.Cancels -= o.Cancels
	s.Downgrades -= o.Downgrades
	s.Releases -= o.Releases
	s.Sheds -= o.Sheds
	s.AdmitDelays -= o.AdmitDelays
	s.DegradedAcquires -= o.DegradedAcquires
	s.InjectedFaults -= o.InjectedFaults
	s.Batches -= o.Batches
	s.BatchFastGrants -= o.BatchFastGrants
	s.BatchFallbacks -= o.BatchFallbacks
	s.SummaryFastChecks -= o.SummaryFastChecks
	s.DeferredDetections -= o.DeferredDetections
	s.DetectorRuns -= o.DetectorRuns
	return s
}
