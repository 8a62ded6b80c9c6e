package main

import (
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/resilience"
)

// maxAttempts bounds the retries of one transaction; a transaction that
// still fails counts as failed. The workloads are built so that none does.
const maxAttempts = 10

// witness is embed_shared's harness-side exclusion check. A librarian
// bumps its effector's version to odd once it holds X and back to even
// before it commits. An editor reads the versions of a robot's effectors
// once the robot lock (and so S on those effectors) is granted, and again
// before it commits: an odd or changed version means some librarian held X
// while the editor held S.
type witness struct {
	ver [dbEffectors]atomic.Uint64
}

// clientState is one closed-loop client: it sends its next transaction
// only after the previous one completed.
type clientState struct {
	sess    session
	ring    []script
	next    int
	witness *witness // nil unless the workload is shared
	spans   *spanBuf // nil unless this window is traced

	counts
}

// counts is what a client tallies over one window.
type counts struct {
	lat        hist
	attempted  uint64
	commits    uint64
	failed     uint64
	begins     uint64
	violations uint64
}

func (a *counts) add(b *counts) {
	a.lat.merge(&b.lat)
	a.attempted += b.attempted
	a.commits += b.commits
	a.failed += b.failed
	a.begins += b.begins
	a.violations += b.violations
}

// run drives transactions until maxTxns have been attempted or the
// deadline passes (a zero limit is no limit). Latency is first Begin to
// successful Commit, retries included.
func (c *clientState) run(maxTxns uint64, deadline time.Time) {
	for maxTxns == 0 || c.attempted < maxTxns {
		s := &c.ring[c.next]
		c.next++
		if c.next == len(c.ring) {
			c.next = 0
		}
		start := time.Now()
		if !deadline.IsZero() && !start.Before(deadline) {
			return
		}
		c.attempted++
		ok := false
		for attempt := 0; attempt < maxAttempts && !ok; attempt++ {
			err := c.attempt(s)
			if err == nil {
				ok = true
			} else if _, retry := resilience.Classify(err); !retry {
				break
			}
		}
		if ok {
			c.commits++
			c.lat.record(int64(time.Since(start)))
		} else {
			c.failed++
		}
	}
}

// attempt runs one script once. With spans on it records a txn root span
// with begin, lock and commit children around the engine calls.
func (c *clientState) attempt(s *script) error {
	var root int32
	var t0 int64
	if c.spans != nil {
		root = c.spans.open(spanTxn, s.id, 0)
		t0 = c.spans.now()
	}
	c.begins++
	t, err := c.sess.begin()
	if c.spans != nil {
		c.spans.add(spanBegin, s.id, root, t0)
	}
	if err != nil {
		return err
	}
	var seen [8]uint64
	nseen := 0
	for i := range s.ops {
		o := &s.ops[i]
		if c.spans != nil {
			t0 = c.spans.now()
		}
		err := t.lock(o.path, o.mode)
		if c.spans != nil {
			c.spans.add(spanLock, s.id, root, t0)
		}
		if err != nil {
			t.abort()
			return err
		}
		for _, e := range o.effs {
			if nseen < len(seen) {
				seen[nseen] = c.witness.ver[e].Load()
				nseen++
			}
		}
	}
	if c.witness != nil {
		c.check(s, seen[:nseen])
	}
	if c.spans != nil {
		t0 = c.spans.now()
	}
	err = t.commit()
	if c.spans != nil {
		c.spans.add(spanCommit, s.id, root, t0)
		c.spans.close(root)
	}
	return err
}

// check runs the exclusion witness while every lock of the script is held.
func (c *clientState) check(s *script, seen []uint64) {
	if s.librarian {
		v := &c.witness.ver[s.eff]
		if v.Add(1)%2 != 1 {
			c.violations++
		}
		if v.Add(1)%2 != 0 {
			c.violations++
		}
		return
	}
	k := 0
	for i := range s.ops {
		for _, e := range s.ops[i].effs {
			if k < len(seen) {
				if v := c.witness.ver[e].Load(); v != seen[k] || v%2 != 0 {
					c.violations++
				}
				k++
			}
		}
	}
}

// windowResult is what one window of all clients adds up to.
type windowResult struct {
	elapsed time.Duration
	counts
}

// runWindow runs every client concurrently for the same window and sums
// their counters.
func runWindow(clients []*clientState, maxTxnsEach uint64, dur time.Duration) *windowResult {
	for _, c := range clients {
		c.counts = counts{}
	}
	var wg sync.WaitGroup
	start := time.Now()
	var deadline time.Time
	if dur > 0 {
		deadline = start.Add(dur)
	}
	for _, c := range clients {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			c.run(maxTxnsEach, deadline)
		}(c)
	}
	wg.Wait()
	r := &windowResult{elapsed: time.Since(start)}
	for _, c := range clients {
		r.add(&c.counts)
	}
	return r
}
