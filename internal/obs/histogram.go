// Package obs is the lock manager's observability subsystem: an event
// collector with per-shard ring buffers, HDR-style latency histograms for
// acquire/wait/hold times keyed by lock mode and lockable-unit kind, and an
// opt-in HTTP exposition endpoint publishing Prometheus-text-format
// counters plus expvar-style gauges. It quantifies the "administrative
// overhead of locks and conflict tests" that the paper's evaluation (§5)
// argues about qualitatively.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucketing, HDR-style: values are grouped by power-of-two
// magnitude, each octave split into 2^subBits linear sub-buckets, giving a
// constant ~25% relative resolution over the full nanosecond-to-minutes
// range in a fixed, lock-free array of counters.
const (
	subBits  = 2
	nSub     = 1 << subBits
	maxExp   = 39 // values ≥ 2^40 ns (~18 min) clamp into the last bucket
	nBuckets = (maxExp-subBits+1)*nSub + nSub
)

// bucketIndex maps a non-negative duration (in ns) to its bucket.
func bucketIndex(v uint64) int {
	if v < nSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	if exp > maxExp {
		return nBuckets - 1
	}
	sub := (v >> uint(exp-subBits)) & (nSub - 1)
	return (exp-subBits+1)*nSub + int(sub)
}

// bucketLow returns the inclusive lower bound (ns) of bucket idx.
func bucketLow(idx int) uint64 {
	if idx < nSub {
		return uint64(idx)
	}
	g := idx / nSub
	sub := uint64(idx % nSub)
	exp := g + subBits - 1
	return (uint64(1) << uint(exp)) + sub<<uint(exp-subBits)
}

// bucketHigh returns the exclusive upper bound (ns) of bucket idx.
func bucketHigh(idx int) uint64 {
	if idx >= nBuckets-1 {
		return math.MaxUint64
	}
	return bucketLow(idx + 1)
}

// Histogram is a fixed-size, lock-free latency histogram. Record is safe
// for concurrent use; Snapshot gives a point-in-time copy for analysis.
type Histogram struct {
	counts [nBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // total ns
	max    atomic.Uint64 // ns
}

// Record adds one observation (negative durations count as zero).
func (h *Histogram) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Reset zeroes the histogram. Concurrent Records during a reset may land
// before or after it — acceptable for the window-slot reuse this serves
// (internal/health); there is no atomic cut across the counters.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Counts [nBuckets]uint64
	Count  uint64
	Sum    time.Duration
	Max    time.Duration
}

// Snapshot copies the histogram's counters. Under concurrent recording the
// copy is not a single atomic cut, which is fine for reporting.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) as a duration:
// the midpoint of the bucket containing the q·Count-th observation, capped
// at the recorded maximum. Zero when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	if rank >= s.Count {
		return s.Max // p100 is exact
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			lo, hi := bucketLow(i), bucketHigh(i)
			if hi == math.MaxUint64 { // clamp bucket
				return s.Max
			}
			mid := time.Duration(lo + (hi-lo)/2)
			if mid > s.Max {
				return s.Max
			}
			return mid
		}
	}
	return s.Max
}

// Mean returns the average observation.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// String summarizes the snapshot for diagnostics.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("count=%d p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Max)
}
