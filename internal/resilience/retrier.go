package resilience

import (
	"context"
	"time"
)

// Observer receives retry life-cycle notifications. Implementations must be
// safe for concurrent use (one Retrier is typically shared by all client
// goroutines). obs.RetryCollector is the canonical implementation.
type Observer interface {
	// Retry fires after a failed attempt that WILL be retried.
	Retry(cause string, attempt int)
	// Done fires when Run returns: attempts is the total number of attempts
	// made, err the final outcome (nil on success).
	Done(attempts int, err error)
}

// teeObserver fans notifications out to several observers in order.
type teeObserver struct{ os []Observer }

func (t teeObserver) Retry(cause string, attempt int) {
	for _, o := range t.os {
		o.Retry(cause, attempt)
	}
}

func (t teeObserver) Done(attempts int, err error) {
	for _, o := range t.os {
		o.Done(attempts, err)
	}
}

// Tee combines observers into one that notifies each in argument order;
// nils are skipped. A retry collector and a health monitor can then share
// one Retrier's observer slot.
func Tee(os ...Observer) Observer {
	kept := make([]Observer, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	return teeObserver{os: kept}
}

// Retrier re-runs a transaction closure until it succeeds, its error is
// classified non-retryable, attempts run out, or the caller's context ends.
// The zero value retries forever, immediately — set Backoff and MaxAttempts
// to taste. A Retrier is immutable after construction and safe for
// concurrent use by any number of goroutines.
type Retrier struct {
	// MaxAttempts bounds the total number of attempts; <= 0 means
	// unlimited (bounded only by ctx).
	MaxAttempts int
	// Backoff paces restarts; nil means Immediate.
	Backoff Backoff
	// AttemptTimeout, when > 0, gives each attempt its own budget: the
	// closure's context carries a deadline, so every AcquireCtx inside the
	// attempt is withdrawn when the budget expires and the attempt retries
	// as a timeout. The parent ctx still bounds the whole Run.
	AttemptTimeout time.Duration
	// Observer, when set, is notified of every retry and final outcome.
	Observer Observer
}

// Run executes body until it returns nil or the retrier gives up; the
// closure must be restartable (it runs from scratch each attempt — the txn
// layer aborts the failed transaction and begins a fresh one). The returned
// error is the LAST attempt's error, unwrapped — errors.Is classification
// still works on it.
func (r *Retrier) Run(ctx context.Context, body func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for attempt := 1; ; attempt++ {
		attemptCtx, cancel := ctx, context.CancelFunc(nil)
		if r.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.AttemptTimeout)
		}
		err := body(attemptCtx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			r.done(attempt, nil)
			return nil
		}
		cause, retry := Classify(err)
		// The parent context ending overrides everything: an attempt that
		// died because the caller gave up must not restart.
		if ctx.Err() != nil {
			retry = false
		}
		if !retry || (r.MaxAttempts > 0 && attempt >= r.MaxAttempts) {
			r.done(attempt, err)
			return err
		}
		if r.Observer != nil {
			r.Observer.Retry(string(cause), attempt)
		}
		bo := r.Backoff
		if bo == nil {
			bo = Immediate{}
		}
		if perr := bo.Pause(ctx, attempt, err); perr != nil {
			r.done(attempt, err)
			return err
		}
	}
}

func (r *Retrier) done(attempts int, err error) {
	if r.Observer != nil {
		r.Observer.Done(attempts, err)
	}
}
