package txn

import (
	"time"

	"colock/internal/resilience"
)

// Option customizes Txn.Lock / Txn.LockPath calls and Manager.RunWithRetry
// runs. The lock-call options (WithTimeout, WithNoFollow) and the retry
// options (WithMaxAttempts, WithBackoff, WithAttemptTimeout,
// WithRetryObserver) form ONE set, so a call site composes lock behavior
// and restart policy in a single variadic tail; options that don't apply to
// the receiving call are ignored.
//
// An Option is a plain value: each With* constructor sets one field, and the
// options of one call are folded field by field (see Fold). Package client's
// Option is this type.
type Option struct {
	// Per-lock-call. Exported so that a caller holding both as data (the
	// server's decoded lock request) passes one literal.
	Timeout  time.Duration // see WithTimeout
	NoFollow bool          // see WithNoFollow

	// Per-RunWithRetry.
	maxAttempts    int
	maxAttemptsSet bool
	backoff        resilience.Backoff
	attemptTimeout time.Duration
	observer       resilience.Observer
}

// Fold merges the options of one call: a flag set by any of them is set, and
// for every other field the last option that sets it wins.
func Fold(opts []Option) Option {
	var cfg Option
	for _, o := range opts {
		if o.Timeout > 0 {
			cfg.Timeout = o.Timeout
		}
		cfg.NoFollow = cfg.NoFollow || o.NoFollow
		if o.maxAttemptsSet {
			cfg.maxAttempts, cfg.maxAttemptsSet = o.maxAttempts, true
		}
		if o.backoff != nil {
			cfg.backoff = o.backoff
		}
		if o.attemptTimeout > 0 {
			cfg.attemptTimeout = o.attemptTimeout
		}
		if o.observer != nil {
			cfg.observer = o.observer
		}
	}
	return cfg
}

// Retrier builds the restart loop the retry options of one RunWithRetry call
// describe: 10 attempts and an immediate restart unless they say otherwise.
// The in-process and the remote RunWithRetry both run on it.
func Retrier(opts []Option) *resilience.Retrier {
	cfg := Fold(opts)
	r := &resilience.Retrier{
		MaxAttempts:    10,
		Backoff:        cfg.backoff,
		AttemptTimeout: cfg.attemptTimeout,
		Observer:       cfg.observer,
	}
	if cfg.maxAttemptsSet {
		r.MaxAttempts = cfg.maxAttempts
	}
	return r
}

// WithTimeout bounds each lock-manager acquisition of the protocol chain:
// a request not granted within d is withdrawn and fails wrapping
// lock.ErrTimeout. Per acquisition, not per call — the workstation-server
// "don't block forever behind a check-out lock" knob.
func WithTimeout(d time.Duration) Option { return Option{Timeout: d} }

// WithNoFollow locks a data path without downward propagation into
// referenced common data — only safe for operations whose semantics never
// access the referenced data (§4.5, NOFOLLOW queries).
func WithNoFollow() Option { return Option{NoFollow: true} }

// WithMaxAttempts bounds RunWithRetry's total attempts; n <= 0 means
// unlimited (bounded only by the context). Without this option the default
// is 10.
func WithMaxAttempts(n int) Option { return Option{maxAttempts: n, maxAttemptsSet: true} }

// WithBackoff sets RunWithRetry's restart pacing policy — e.g.
// resilience.CappedExponential{} or a resilience.RestartWait draining the
// blockers that killed the previous attempt. Default is an immediate
// restart.
func WithBackoff(b resilience.Backoff) Option { return Option{backoff: b} }

// WithAttemptTimeout gives each RunWithRetry attempt its own budget: the
// transaction's context carries a deadline, every lock acquisition inside
// the attempt is withdrawn when it expires, and the attempt restarts as a
// timeout. The caller's outer context still bounds the whole run.
func WithAttemptTimeout(d time.Duration) Option { return Option{attemptTimeout: d} }

// WithRetryObserver wires a resilience.Observer (e.g. *obs.RetryCollector)
// into RunWithRetry, recording retries by cause and attempts-per-commit.
func WithRetryObserver(o resilience.Observer) Option { return Option{observer: o} }
