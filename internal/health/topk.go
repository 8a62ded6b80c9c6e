package health

import (
	"sort"
	"sync"

	"colock/internal/lock"
)

// TopEntry is one row of the hot-resource ranking.
type TopEntry struct {
	// Resource is the contended lock name.
	Resource lock.Resource
	// Mode is the requested mode that contended (the sketch keys on
	// resource+mode: an X-hot entry point and an S-hot one rank apart).
	Mode string
	// Count is the sketch's occurrence estimate. It never undercounts:
	// true ≤ Count ≤ true + MaxErr.
	Count uint64
	// MaxErr bounds the overestimation Count may carry from slot
	// inheritance (zero for keys tracked since their first occurrence).
	MaxErr uint64
}

// Sketch is a space-saving (Misra–Gries family) top-K summary over an
// unbounded key stream in bounded memory: at most cap keys are tracked; a
// new key arriving at capacity evicts the minimum-count key and inherits
// its count + 1, recording that count as its error bound. The classic
// guarantees follow: counts never undercount, any key with true frequency
// above the evicted minimum is present, and Count − MaxErr is a certain
// lower bound.
//
// Decay halves every count once per closed health window, turning the
// lifetime summary into an exponentially-weighted "hot NOW" ranking —
// a key must keep contending to keep its rank, and idle keys fall out
// entirely once their count halves to zero.
type Sketch struct {
	mu  sync.Mutex
	cap int
	m   map[string]*topSlot
}

type topSlot struct {
	res   lock.Resource
	mode  string
	count uint64
	err   uint64
}

// NewSketch builds a sketch tracking at most capacity keys (minimum 1).
func NewSketch(capacity int) *Sketch {
	if capacity < 1 {
		capacity = 1
	}
	return &Sketch{cap: capacity, m: make(map[string]*topSlot, capacity)}
}

// Touch records one occurrence of resource r contended in mode m.
func (s *Sketch) Touch(r lock.Resource, m lock.Mode) {
	key := string(r) + "|" + m.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl, ok := s.m[key]; ok {
		sl.count++
		return
	}
	if len(s.m) < s.cap {
		s.m[key] = &topSlot{res: r, mode: m.String(), count: 1}
		return
	}
	// At capacity: the newcomer takes over the minimum slot, inheriting
	// min+1 with error bound min (it may have occurred up to min times
	// while untracked, never more — else it would have displaced earlier).
	var minKey string
	var min *topSlot
	for k, sl := range s.m {
		if min == nil || sl.count < min.count || (sl.count == min.count && k < minKey) {
			min, minKey = sl, k
		}
	}
	delete(s.m, minKey)
	s.m[key] = &topSlot{res: r, mode: m.String(), count: min.count + 1, err: min.count}
}

// Decay halves every tracked count (and error bound) and drops keys that
// reach zero; called once per closed window by Monitor.Advance.
func (s *Sketch) Decay() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, sl := range s.m {
		sl.count >>= 1
		sl.err >>= 1
		if sl.count == 0 {
			delete(s.m, k)
		}
	}
}

// TopK returns the n highest-count entries, descending by count with key
// order breaking ties (n <= 0 returns all tracked keys).
func (s *Sketch) TopK(n int) []TopEntry {
	s.mu.Lock()
	out := make([]TopEntry, 0, len(s.m))
	for _, sl := range s.m {
		out = append(out, TopEntry{Resource: sl.res, Mode: sl.mode, Count: sl.count, MaxErr: sl.err})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Resource != out[j].Resource {
			return out[i].Resource < out[j].Resource
		}
		return out[i].Mode < out[j].Mode
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Len returns the number of tracked keys.
func (s *Sketch) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
