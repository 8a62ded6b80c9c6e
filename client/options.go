package client

import (
	"time"

	"colock/internal/resilience"
	"colock/internal/txn"
)

// Option customizes Txn.Lock / Txn.LockPath calls and Client.RunWithRetry
// runs. It is the in-process txn.Option — one plain value type, one fold —
// so code ported from internal/txn keeps its variadic tails unchanged.
// Options that don't apply to the receiving call are ignored.
type Option = txn.Option

// WithTimeout bounds each lock-manager acquisition server-side: the
// duration travels in the request and a lock not granted within it is
// withdrawn, failing with lock.ErrTimeout exactly as locally.
func WithTimeout(d time.Duration) Option { return txn.WithTimeout(d) }

// WithNoFollow locks a data path without downward propagation into
// referenced common data (§4.5, NOFOLLOW queries).
func WithNoFollow() Option { return txn.WithNoFollow() }

// WithMaxAttempts bounds RunWithRetry's total attempts; n <= 0 means
// unlimited (bounded only by the context). Default is 10.
func WithMaxAttempts(n int) Option { return txn.WithMaxAttempts(n) }

// WithBackoff sets RunWithRetry's restart pacing policy. Default is an
// immediate restart.
func WithBackoff(b resilience.Backoff) Option { return txn.WithBackoff(b) }

// WithAttemptTimeout gives each RunWithRetry attempt its own budget. The
// remaining budget is folded into every lock request's wire timeout, so
// the server withdraws acquisitions the attempt can no longer afford.
func WithAttemptTimeout(d time.Duration) Option { return txn.WithAttemptTimeout(d) }

// WithRetryObserver wires a resilience.Observer into RunWithRetry,
// recording retries by cause and attempts-per-commit.
func WithRetryObserver(o resilience.Observer) Option { return txn.WithRetryObserver(o) }
