package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/lock"
)

// Op names the three latency dimensions the collector distinguishes.
type Op int

const (
	// OpAcquire is the request-to-grant latency of every granted request
	// (fast-path grants included).
	OpAcquire Op = iota
	// OpWait is the time spent blocked: grants that queued first, plus
	// withdrawn requests (timeout, cancel, deadlock victim).
	OpWait
	// OpHold is the grant-to-release hold time of a lock.
	OpHold

	nOps
)

// String names the op for labels.
func (o Op) String() string {
	switch o {
	case OpAcquire:
		return "acquire"
	case OpWait:
		return "wait"
	case OpHold:
		return "hold"
	}
	return "op?"
}

// nModes is the size of the lock.Mode dimension (None..X).
const nModes = int(lock.X) + 1

// eventKinds names the event-kind counters in exposition order: the
// manager's kinds, then "other" for everything else. The counters themselves
// are indexed by lock.EventKind.
var eventKinds = func() (names []string) {
	for k := lock.KindGrant; k < lock.NumEventKinds; k++ {
		names = append(names, k.String())
	}
	return append(names, lock.KindOther.String())
}()

// DefaultKinds is the default lockable-unit-kind dimension, derived from
// the hierarchical resource-name depth (database/segment/relation/object
// path): the first four levels are the database HeLU, the segment HeLU,
// the relation HoLU and the complex-object root — an entry point when
// reached by downward propagation — and anything deeper is an inner node
// of an object. Callers with schema knowledge (e.g. colockshell via
// core.UnitKindOf) refine the deep levels into BLU/HoLU/HeLU.
var DefaultKinds = []string{"database", "segment", "relation", "entry-point", "node", "BLU", "HoLU", "HeLU", "other"}

// DepthKindOf classifies a resource by path depth into DefaultKinds.
func DepthKindOf(r lock.Resource) int {
	switch strings.Count(string(r), "/") {
	case 0:
		return 0 // database
	case 1:
		return 1 // segment
	case 2:
		return 2 // relation
	case 3:
		return 3 // complex-object root / entry point
	default:
		return 4 // inner node
	}
}

// Options configures a Collector.
type Options struct {
	// KindLabels and KindOf define the lockable-unit-kind dimension of the
	// histograms; nil defaults to DefaultKinds/DepthKindOf. KindOf must
	// return an index into KindLabels (out-of-range indexes are clamped to
	// the last label). Its answer for a name must not change, except that
	// the last label may later turn into another: the collector asks once
	// per resource id and keeps every answer but the last label.
	KindLabels []string
	KindOf     func(lock.Resource) int
}

// Collector consumes lock.Events (it is a lock.EventSink) and maintains
// cumulative event-kind counters and acquire/wait/hold latency histograms
// keyed by lock mode and lockable-unit kind — what /metrics and the shell's
// .metrics serve. It keeps no event: Record and RecordBatch are called
// outside all manager latches and touch only atomics (and a latch on the
// first sight of an id past the memo's end).
//
// A manager-built event is classified by its resource id: the memo keeps
// the kind of every id classified so far, so KindOf runs once per resource
// rather than once per event. Ids are one manager's: a collector serves the
// events of one manager (literal events, Code zero, classify by name).
type Collector struct {
	kindLabels []string
	kindOf     func(lock.Resource) int

	// memo is the kind memo by lock.ResID: a chunk directory replaced
	// whole (copy on write, under grow) when an id lands past its end.
	memo atomic.Pointer[[]*kindChunk]
	grow sync.Mutex

	events [lock.NumEventKinds]atomic.Uint64
	hists  []*Histogram // nOps × nModes × len(kindLabels), row-major
}

// memoChunkBits sizes the kind memo's chunks (1,024 ids each).
const memoChunkBits = 10

// kindChunk holds kind index + 1 per id; 0 means not classified yet.
type kindChunk [1 << memoChunkBits]atomic.Uint32

// NewCollector builds a collector.
func NewCollector(opts Options) *Collector {
	if opts.KindLabels == nil {
		opts.KindLabels = DefaultKinds
		if opts.KindOf == nil {
			opts.KindOf = DepthKindOf
		}
	}
	if opts.KindOf == nil {
		opts.KindOf = func(lock.Resource) int { return 0 }
	}
	c := &Collector{
		kindLabels: opts.KindLabels,
		kindOf:     opts.KindOf,
		hists:      make([]*Histogram, int(nOps)*nModes*len(opts.KindLabels)),
	}
	for i := range c.hists {
		c.hists[i] = &Histogram{}
	}
	return c
}

// observe records d in the (op, mode, kind) histogram; kind is the
// already-clamped lockable-unit kind index of the event's resource.
func (c *Collector) observe(op Op, mode lock.Mode, kind int, d time.Duration) {
	mi := int(mode)
	if mi >= nModes {
		mi = nModes - 1
	}
	c.hists[(int(op)*nModes+mi)*len(c.kindLabels)+kind].Record(d)
}

// classify runs KindOf on r, clamping out-of-range answers to the last label.
func (c *Collector) classify(r lock.Resource) int {
	ki := c.kindOf(r)
	if ki < 0 || ki >= len(c.kindLabels) {
		ki = len(c.kindLabels) - 1
	}
	return ki
}

// kindIndex classifies e's resource: a manager-built event by the memo,
// filling it on an id's first sight, anything else by name. The last label
// is not kept, so that a resource of a relation DDL adds later is
// classified again once it can be.
func (c *Collector) kindIndex(e *lock.Event) int {
	if e.Code == lock.KindOther || e.Resource == "" {
		return c.classify(e.Resource)
	}
	ci, i := int(e.ID>>memoChunkBits), e.ID&(1<<memoChunkBits-1)
	if p := c.memo.Load(); p != nil && ci < len(*p) {
		if k := (*p)[ci][i].Load(); k != 0 {
			return int(k - 1)
		}
	}
	ki := c.classify(e.Resource)
	if ki < len(c.kindLabels)-1 {
		c.chunk(ci)[i].Store(uint32(ki + 1))
	}
	return ki
}

// chunk returns memo chunk ci, growing the directory to it.
func (c *Collector) chunk(ci int) *kindChunk {
	if p := c.memo.Load(); p != nil && ci < len(*p) {
		return (*p)[ci]
	}
	c.grow.Lock()
	defer c.grow.Unlock()
	var dir []*kindChunk
	if p := c.memo.Load(); p != nil {
		dir = *p
	}
	if ci >= len(dir) {
		grown := append(dir[:len(dir):len(dir)], make([]*kindChunk, ci+1-len(dir))...)
		for j := len(dir); j <= ci; j++ {
			grown[j] = new(kindChunk)
		}
		c.memo.Store(&grown)
		dir = grown
	}
	return dir[ci]
}

// observeEvent folds one event into the latency histograms and returns its
// kind for the caller to count.
func (c *Collector) observeEvent(e *lock.Event) lock.EventKind {
	k := e.KindCode()
	switch k {
	case lock.KindGrant, lock.KindConvert:
		if !e.Waited {
			c.observe(OpAcquire, e.Mode, c.kindIndex(e), e.Dur)
		} else if e.Dur > 0 {
			// Dur == 0 means the enqueue ran before a sink was attached, so
			// no wait reference exists — skip rather than record a zero.
			ki := c.kindIndex(e)
			c.observe(OpAcquire, e.Mode, ki, e.Dur)
			c.observe(OpWait, e.Mode, ki, e.Dur)
		}
	case lock.KindTimeout, lock.KindCancel, lock.KindVictim:
		if e.Dur > 0 {
			c.observe(OpWait, e.Mode, c.kindIndex(e), e.Dur)
		}
	case lock.KindRelease:
		if e.Dur > 0 {
			c.observe(OpHold, e.Mode, c.kindIndex(e), e.Dur)
		}
	}
	return k
}

// Record consumes one event. It is the lock.EventSink implementation and
// runs on the operation's goroutine with no manager latch held.
func (c *Collector) Record(e lock.Event) { c.events[c.observeEvent(&e)].Add(1) }

// RecordBatch consumes one operation's events (lock.BatchSink), adding to
// each kind counter once per round; nothing of the borrowed slice is
// retained.
func (c *Collector) RecordBatch(evs []lock.Event) {
	var n [lock.NumEventKinds]uint64
	for i := range evs {
		n[c.observeEvent(&evs[i])]++
	}
	for k := range n {
		if n[k] != 0 {
			c.events[k].Add(n[k])
		}
	}
}

// EventCount returns the number of events of the given kind seen so far.
func (c *Collector) EventCount(kind string) uint64 {
	return c.events[lock.KindOf(kind)].Load()
}

// EventCounts returns all event-kind counters (kind → count).
func (c *Collector) EventCounts() map[string]uint64 {
	out := make(map[string]uint64, len(eventKinds))
	for _, k := range eventKinds {
		out[k] = c.EventCount(k)
	}
	return out
}

// HistView is one non-empty histogram with its labels.
type HistView struct {
	Op   Op
	Mode lock.Mode
	Kind string // lockable-unit kind label
	Snap HistSnapshot
}

// Histograms returns a snapshot of every non-empty histogram, ordered by
// (op, mode, kind).
func (c *Collector) Histograms() []HistView {
	var out []HistView
	for op := Op(0); op < nOps; op++ {
		for mi := 0; mi < nModes; mi++ {
			for ki, kl := range c.kindLabels {
				h := c.hists[(int(op)*nModes+mi)*len(c.kindLabels)+ki]
				if h.Count() == 0 {
					continue
				}
				out = append(out, HistView{Op: op, Mode: lock.Mode(mi), Kind: kl, Snap: h.Snapshot()})
			}
		}
	}
	return out
}

// Hist returns the snapshot of one (op, mode, kind-label) histogram
// (zero-valued when the label is unknown or nothing was recorded).
func (c *Collector) Hist(op Op, mode lock.Mode, kindLabel string) HistSnapshot {
	for ki, kl := range c.kindLabels {
		if kl == kindLabel {
			mi := int(mode)
			if mi >= nModes {
				mi = nModes - 1
			}
			return c.hists[(int(op)*nModes+mi)*len(c.kindLabels)+ki].Snapshot()
		}
	}
	return HistSnapshot{}
}

// Aggregate returns the merge of every histogram of one op across modes
// and kinds — the headline acquire/wait/hold distribution.
func (c *Collector) Aggregate(op Op) HistSnapshot {
	var s HistSnapshot
	for mi := 0; mi < nModes; mi++ {
		for ki := range c.kindLabels {
			hs := c.hists[(int(op)*nModes+mi)*len(c.kindLabels)+ki].Snapshot()
			for b, n := range hs.Counts {
				s.Counts[b] += n
			}
			s.Count += hs.Count
			s.Sum += hs.Sum
			if hs.Max > s.Max {
				s.Max = hs.Max
			}
		}
	}
	return s
}
