package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"colock/internal/lock"
)

// Profile folds blocked time into a contention profile keyed by
// (resource, mode, waiting txn → holding txn). It is a lock.EventSink:
// "wait" events carry the blocker set the manager computed under the shard
// latch (Event.Blockers), and the matching grant/timeout/cancel/victim
// event carries the blocked duration; the pair becomes one folded sample.
//
// The folded-stack text output (FoldedStacks) is the flame-graph interchange
// format — semicolon-separated frames, a space, and an integer value — so
// blocked time renders directly in flamegraph.pl, inferno, speedscope, or
// `pprof -flame` after a trivial conversion. Frames contain no spaces or
// semicolons by construction. The value unit is nanoseconds of blocked
// time; the full Dur is attributed to every blocker of the wait (a wait
// behind two holders cost the waiter that time against both).
type Profile struct {
	mu      sync.Mutex
	pending map[lock.TxnID]pendingWait
	cells   map[profileKey]*profileCell
	dropped uint64 // waits discarded by the pending-map cap
}

// maxPending bounds the pending-wait map against waits whose terminal event
// never arrives (requests parked for good under PolicyNone).
const maxPending = 8192

type pendingWait struct {
	res      lock.Resource
	mode     string
	blockers []lock.TxnID
}

type profileKey struct {
	res    lock.Resource
	mode   string
	waiter lock.TxnID
	holder lock.TxnID // 0 when the blocker set was unknown
}

type profileCell struct {
	ns    int64
	count uint64
}

// NewProfile builds an empty contention profile.
func NewProfile() *Profile {
	return &Profile{
		pending: make(map[lock.TxnID]pendingWait),
		cells:   make(map[profileKey]*profileCell),
	}
}

// Record is the lock.EventSink implementation.
func (p *Profile) Record(e lock.Event) {
	if concerns(&e) {
		p.mu.Lock()
		p.recordLocked(&e)
		p.mu.Unlock()
	}
}

// concerns reports whether e can start or end a wait.
func concerns(e *lock.Event) bool {
	switch e.KindCode() {
	case lock.KindRelease, lock.KindDowngrade, lock.KindShed, lock.KindOther:
		return false
	}
	return true
}

// RecordBatch consumes one operation's events (lock.BatchSink) under at most
// one hold of the profile's mutex. Nothing of the batch is retained except
// the (never reused) blocker sets of wait events.
func (p *Profile) RecordBatch(evs []lock.Event) {
	locked := false
	for i := range evs {
		if !concerns(&evs[i]) {
			continue
		}
		if !locked {
			p.mu.Lock()
			locked = true
		}
		p.recordLocked(&evs[i])
	}
	if locked {
		p.mu.Unlock()
	}
}

// recordLocked folds one event. Caller holds p.mu.
func (p *Profile) recordLocked(e *lock.Event) {
	switch e.KindCode() {
	case lock.KindWait:
		if len(p.pending) >= maxPending {
			p.dropped++
		} else {
			p.pending[e.Txn] = pendingWait{res: e.Resource, mode: e.Mode.String(), blockers: e.Blockers}
		}
	case lock.KindGrant, lock.KindConvert:
		pw, ok := p.pending[e.Txn]
		delete(p.pending, e.Txn)
		if ok && e.Waited && e.Dur > 0 {
			p.foldLocked(pw, e)
		}
	case lock.KindTimeout, lock.KindCancel, lock.KindVictim:
		pw, ok := p.pending[e.Txn]
		delete(p.pending, e.Txn)
		if !ok {
			// A wait-die victim dies without ever queueing; its victim
			// event carries the blockers directly.
			pw = pendingWait{res: e.Resource, mode: e.Mode.String(), blockers: e.Blockers}
		}
		if e.Dur > 0 {
			p.foldLocked(pw, e)
		}
	case lock.KindReleaseAll:
		delete(p.pending, e.Txn)
	}
}

// foldLocked adds one blocked-time sample. Caller holds p.mu.
func (p *Profile) foldLocked(pw pendingWait, e *lock.Event) {
	holders := pw.blockers
	if len(holders) == 0 {
		holders = []lock.TxnID{0}
	}
	for _, h := range holders {
		k := profileKey{res: pw.res, mode: pw.mode, waiter: e.Txn, holder: h}
		c := p.cells[k]
		if c == nil {
			c = &profileCell{}
			p.cells[k] = c
		}
		c.ns += int64(e.Dur)
		c.count++
	}
}

// Entry is one contention-profile row.
type Entry struct {
	Resource  lock.Resource `json:"resource"`
	Mode      string        `json:"mode"`
	Waiter    lock.TxnID    `json:"waiter"`
	Holder    lock.TxnID    `json:"holder"` // 0 = unknown
	BlockedNS int64         `json:"blocked_ns"`
	Count     uint64        `json:"count"`
}

// Entries returns the profile rows sorted by blocked time, largest first.
func (p *Profile) Entries() []Entry {
	p.mu.Lock()
	out := make([]Entry, 0, len(p.cells))
	for k, c := range p.cells {
		out = append(out, Entry{Resource: k.res, Mode: k.mode, Waiter: k.waiter, Holder: k.holder, BlockedNS: c.ns, Count: c.count})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].BlockedNS != out[j].BlockedNS {
			return out[i].BlockedNS > out[j].BlockedNS
		}
		return foldedLine(out[i]) < foldedLine(out[j])
	})
	return out
}

// foldedLine renders one entry in folded-stack form:
//
//	txn:<waiter>;<mode>:<resource>;blocked-on:txn:<holder> <ns>
//
// Hierarchical resource names keep their slashes; frames never contain
// spaces or semicolons (resource names are path strings).
func foldedLine(e Entry) string {
	holder := fmt.Sprintf("blocked-on:txn:%d", e.Holder)
	if e.Holder == 0 {
		holder = "blocked-on:unknown"
	}
	return fmt.Sprintf("txn:%d;%s:%s;%s %d", e.Waiter, e.Mode, e.Resource, holder, e.BlockedNS)
}

// FoldedStacks renders the whole profile as folded-stack text, one sample
// line per (resource, mode, waiter, holder) cell, sorted lexicographically
// (the order flamegraph tooling expects is irrelevant, but a stable order
// makes the output diffable).
func (p *Profile) FoldedStacks() string {
	entries := p.Entries()
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = foldedLine(e)
	}
	sort.Strings(lines)
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// WriteFolded writes FoldedStacks to w.
func (p *Profile) WriteFolded(w io.Writer) error {
	_, err := io.WriteString(w, p.FoldedStacks())
	return err
}

// TotalBlocked returns the total folded blocked time in nanoseconds.
func (p *Profile) TotalBlocked() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ns int64
	for _, c := range p.cells {
		ns += c.ns
	}
	return ns
}

// Dropped returns the number of waits discarded by the pending-map cap.
func (p *Profile) Dropped() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}
