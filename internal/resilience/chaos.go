package resilience

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/lock"
)

// ChaosConfig sets the fault mix. Rates are probabilities per acquisition
// call (lock.Injector) in [0,1], tested in the order victim, timeout, delay
// — at most one fault per call.
type ChaosConfig struct {
	// Seed makes the fault sequence reproducible: the same seed and the
	// same sequence of InjectAcquire calls produce the same faults.
	Seed int64
	// VictimRate forces synthetic deadlock victims (ErrDeadlockVictim).
	VictimRate float64
	// TimeoutRate forces spurious timeouts (ErrTimeout).
	TimeoutRate float64
	// DelayRate stalls the request by Delay before granting normally —
	// a slow grant, not a failure.
	DelayRate float64
	// Delay is the synthetic grant latency for DelayRate faults (default
	// 1ms).
	Delay time.Duration
}

// ChaosStats counts injected faults by kind.
type ChaosStats struct {
	Victims  uint64
	Timeouts uint64
	Delays   uint64
}

// Chaos is a deterministic lock.Injector: installed with
// Manager.SetInjector, it forces synthetic deadlock victims, spurious
// timeouts, and delayed grants at the configured rates. The single seeded
// source is mutex-guarded, so -race runs are clean; under a fixed seed the
// kth fault decision is always the same, making storm tests reproducible
// attempt-for-attempt whenever the call order is (goroutine scheduling can
// reorder WHICH request draws the kth decision, but the fault mix and count
// stay fixed).
type Chaos struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg ChaosConfig

	victims  atomic.Uint64
	timeouts atomic.Uint64
	delays   atomic.Uint64
}

// NewChaos builds a Chaos injector from cfg.
func NewChaos(cfg ChaosConfig) *Chaos {
	if cfg.Delay <= 0 {
		cfg.Delay = time.Millisecond
	}
	return &Chaos{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// InjectAcquire implements lock.Injector.
func (c *Chaos) InjectAcquire(txn lock.TxnID, r lock.Resource, mode lock.Mode) lock.Injection {
	c.mu.Lock()
	roll := c.rng.Float64()
	c.mu.Unlock()
	switch {
	case roll < c.cfg.VictimRate:
		c.victims.Add(1)
		return lock.Injection{Err: lock.ErrDeadlockVictim}
	case roll < c.cfg.VictimRate+c.cfg.TimeoutRate:
		c.timeouts.Add(1)
		return lock.Injection{Err: lock.ErrTimeout}
	case roll < c.cfg.VictimRate+c.cfg.TimeoutRate+c.cfg.DelayRate:
		c.delays.Add(1)
		return lock.Injection{Delay: c.cfg.Delay}
	}
	return lock.Injection{}
}

// Stats returns the cumulative injected-fault counts.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Victims:  c.victims.Load(),
		Timeouts: c.timeouts.Load(),
		Delays:   c.delays.Load(),
	}
}
