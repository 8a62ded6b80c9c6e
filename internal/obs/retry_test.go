package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"colock/internal/lock"
	"colock/internal/resilience"
)

// RetryCollector must satisfy resilience.Observer by shape.
var _ resilience.Observer = (*RetryCollector)(nil)

func TestRetryCollectorCounts(t *testing.T) {
	rc := NewRetryCollector()
	rc.Retry("deadlock", 1)
	rc.Retry("deadlock", 2)
	rc.Retry("timeout", 1)
	rc.Done(3, nil)
	rc.Done(1, nil)
	rc.Done(5, errors.New("gave up"))

	if got := rc.Retries(); got["deadlock"] != 2 || got["timeout"] != 1 {
		t.Errorf("retries = %v", got)
	}
	s := rc.Attempts()
	if s.Commits != 2 || s.GiveUps != 1 || s.Sum != 4 || s.Max != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Buckets[1] != 1 || s.Buckets[3] != 1 {
		t.Errorf("buckets = %v, want one commit at 1 attempt and one at 3", s.Buckets)
	}
	if m := s.Mean(); m != 2 {
		t.Errorf("mean = %v, want 2", m)
	}
	if str := rc.String(); !strings.Contains(str, "deadlock=2") || !strings.Contains(str, "commits=2") {
		t.Errorf("String() = %q", str)
	}
}

func TestRetryCollectorOverflowBucket(t *testing.T) {
	rc := NewRetryCollector()
	rc.Done(100, nil)
	s := rc.Attempts()
	if s.Buckets[attemptBuckets-1] != 1 || s.Max != 100 {
		t.Errorf("snapshot = %+v, want overflow bucket hit and max 100", s)
	}
}

// Under -race: the collector wired as a live Retrier observer across
// concurrent workers, with a chaos-faulted manager underneath.
func TestRetryCollectorConcurrent(t *testing.T) {
	rc := NewRetryCollector()
	m := lock.NewManager(lock.Options{})
	m.SetInjector(resilience.NewChaos(resilience.ChaosConfig{Seed: 3, VictimRate: 0.3}))
	r := &resilience.Retrier{Observer: rc}

	const workers, iters = 8, 50
	var next lock.TxnID
	var idMu sync.Mutex
	newID := func() lock.TxnID {
		idMu.Lock()
		defer idMu.Unlock()
		next++
		return next
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := r.Run(context.Background(), func(ctx context.Context) error {
					id := newID()
					defer m.ReleaseAll(id)
					return m.AcquireCtx(ctx, id, "hot", lock.S)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s := rc.Attempts()
	if s.Commits != workers*iters {
		t.Errorf("commits = %d, want %d", s.Commits, workers*iters)
	}
	if s.Sum < s.Commits {
		t.Errorf("sum %d < commits %d", s.Sum, s.Commits)
	}
	// At a 30% fault rate over 400 runs some retries are certain.
	if rc.Retries()["deadlock"] == 0 {
		t.Error("expected chaos-induced deadlock retries")
	}
}
