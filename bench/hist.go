package main

import "math/bits"

// hist is a fixed log-linear latency histogram over nanoseconds: values
// below 2^subBits are counted exactly, larger ones in 2^subBits linear
// sub-buckets per power of two, so a bucket is at most 1/128 = 0.78 % of
// its lower bound wide. It is a plain array: recording never allocates.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histMaxBits = 40 // values clamp below 2^40 ns (18 min)
	histBuckets = (histMaxBits - subBits + 1) * subCount
)

func histIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	shift := uint(bits.Len64(v)) - 1 - subBits
	return int(shift+1)*subCount + int(v>>shift) - subCount
}

// histBounds returns the inclusive lower bound and the width of bucket i.
func histBounds(i int) (lo, width uint64) {
	g, off := i/subCount, uint64(i%subCount)
	if g == 0 {
		return off, 1
	}
	shift := uint(g - 1)
	return (subCount + off) << shift, 1 << shift
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// by rank inside the bucket that holds it, so two runs whose quantile
// falls in the same bucket still read differently.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return float64(lo) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo + width)
}
