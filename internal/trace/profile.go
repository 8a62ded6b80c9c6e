package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"colock/internal/lock"
)

// Profile is the contention table: who waits where, keyed by (resource,
// mode). It is the one copy of that count — health.Monitor owns and decays
// one for /health, .topk, /trace/profile and .profile, and colockreplay
// fills one from a journal for its hot list.
//
// The table is a space-saving (Misra–Gries family) summary in bounded
// memory: at most its capacity of keys hold a slot. A new key arriving at
// capacity takes over the slot with the lowest decayed count, inheriting
// that count + 1 and recording the count as its error bound. The classic
// guarantees follow: Count never undercounts the key's contention events
// since the last decay, any key whose count beats the evicted minimum is
// present, and Count − MaxErr is a certain lower bound.
//
// One contention event is a wait, a shed, a victim or a timeout. Blocked
// time — the Dur of a waited grant or conversion, a victim, a timeout or a
// cancel — is added to the key's slot if it has one; no wait is paired with
// its end, so nothing is held per transaction.
//
// Profile is a lock.EventSink and lock.BatchSink. All methods are safe for
// concurrent use.
type Profile struct {
	mu    sync.Mutex
	cap   int
	slots map[profileKey]*profileSlot
}

type profileKey struct {
	res  lock.Resource
	mode lock.Mode
}

type profileSlot struct {
	blocks    uint64 // contention events since the key took the slot
	blockedNS int64
	count     uint64 // decayed contention events; the space-saving estimate
	maxErr    uint64
}

// DefaultProfileCap is NewProfile's capacity, and health.Options.TopK's
// default.
const DefaultProfileCap = 32

// NewProfile builds an empty contention table of DefaultProfileCap slots.
func NewProfile() *Profile { return NewProfileCap(DefaultProfileCap) }

// NewProfileCap builds an empty contention table of at most capacity slots
// (minimum 1). A table at least as large as the number of events it is fed
// never evicts, so its counts are exact.
func NewProfileCap(capacity int) *Profile {
	return &Profile{cap: max(capacity, 1), slots: make(map[profileKey]*profileSlot)}
}

// Record is the lock.EventSink implementation.
func (p *Profile) Record(e lock.Event) {
	if concerns(&e) {
		p.mu.Lock()
		p.recordLocked(&e)
		p.mu.Unlock()
	}
}

// RecordBatch consumes one operation's events (lock.BatchSink) under at most
// one hold of the table's mutex.
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

// concerns reports whether e counts contention or blocked time.
func concerns(e *lock.Event) bool {
	switch e.KindCode() {
	case lock.KindWait, lock.KindShed, lock.KindVictim, lock.KindTimeout, lock.KindCancel:
		return true
	case lock.KindGrant, lock.KindConvert:
		return e.Waited
	}
	return false
}

// recordLocked folds one event that concerns the table. Caller holds p.mu.
func (p *Profile) recordLocked(e *lock.Event) {
	k := profileKey{e.Resource, e.Mode}
	switch e.KindCode() {
	case lock.KindWait, lock.KindShed:
		p.touchLocked(k)
	case lock.KindVictim, lock.KindTimeout:
		p.touchLocked(k).blockedNS += int64(e.Dur)
	default: // a waited grant or conversion, a cancel
		if s := p.slots[k]; s != nil {
			s.blockedNS += int64(e.Dur)
		}
	}
}

// touchLocked counts one contention event against k and returns its slot.
// Caller holds p.mu.
func (p *Profile) touchLocked(k profileKey) *profileSlot {
	if s := p.slots[k]; s != nil {
		s.blocks++
		s.count++
		return s
	}
	if len(p.slots) < p.cap {
		s := &profileSlot{blocks: 1, count: 1}
		p.slots[k] = s
		return s
	}
	// At capacity: the newcomer takes over the minimum slot, inheriting
	// min+1 with error bound min (it may have occurred up to min times
	// while untracked, never more — else it would have displaced earlier).
	var minKey profileKey
	var min *profileSlot
	for mk, s := range p.slots {
		if min == nil || s.count < min.count || s.count == min.count && keyLess(mk, minKey) {
			min, minKey = s, mk
		}
	}
	delete(p.slots, minKey)
	*min = profileSlot{blocks: 1, count: min.count + 1, maxErr: min.count}
	p.slots[k] = min
	return min
}

func keyLess(a, b profileKey) bool {
	if a.res != b.res {
		return a.res < b.res
	}
	return a.mode < b.mode
}

// Decay halves every slot's Count and MaxErr, turning the lifetime summary
// into an exponentially weighted "hot now" ranking. Slots stay: one whose
// count reaches zero is the first to be taken over. health.Monitor calls it
// once per closed window.
func (p *Profile) Decay() {
	p.mu.Lock()
	for _, s := range p.slots {
		s.count >>= 1
		s.maxErr >>= 1
	}
	p.mu.Unlock()
}

// Entry is one slot of the contention table.
type Entry struct {
	Resource lock.Resource
	// Mode is the requested mode that contended: an X-hot entry point and
	// an S-hot one rank apart.
	Mode string
	// Blocks counts the contention events since the key took the slot.
	Blocks uint64
	// BlockedNS is the blocked time since the key took the slot.
	BlockedNS int64
	// Count is the decayed space-saving estimate: true ≤ Count ≤ true +
	// MaxErr over the events since the last decay.
	Count uint64
	// MaxErr bounds the overestimation Count carries from taking over a
	// slot (zero for keys tracked since their first contention).
	MaxErr uint64
}

// Entries returns every slot, descending by Count with (resource, mode)
// breaking ties.
func (p *Profile) Entries() []Entry {
	p.mu.Lock()
	out := make([]Entry, 0, len(p.slots))
	for k, s := range p.slots {
		out = append(out, Entry{Resource: k.res, Mode: k.mode.String(), Blocks: s.blocks,
			BlockedNS: s.blockedNS, Count: s.count, MaxErr: s.maxErr})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Resource != out[j].Resource {
			return out[i].Resource < out[j].Resource
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// TopK returns the n hottest entries in Entries order, omitting those whose
// Count has decayed to zero (n <= 0 returns all of the rest).
func (p *Profile) TopK(n int) []Entry {
	out := p.Entries()
	for i, e := range out {
		if e.Count == 0 {
			out = out[:i]
			break
		}
	}
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// FoldedStacks renders the table's blocked time as folded-stack text, the
// flame-graph interchange format (flamegraph.pl, inferno, speedscope): one
// line per slot with blocked time, whose frames are the resource path's
// segments and then the mode, a space, and the blocked nanoseconds —
//
//	db1;seg1;cells;c1;X 1500
//
// The object-specific lock graph is then the flame graph: blocked time sums
// up the hierarchy to the unit and segment an operator would escalate.
// Frames contain no spaces or semicolons (resource names are path strings).
// Lines are sorted, so the output is diffable.
func (p *Profile) FoldedStacks() string {
	var lines []string
	for _, e := range p.Entries() {
		if e.BlockedNS > 0 {
			frames := strings.ReplaceAll(string(e.Resource), "/", ";")
			lines = append(lines, fmt.Sprintf("%s;%s %d", frames, e.Mode, e.BlockedNS))
		}
	}
	if len(lines) == 0 {
		return ""
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// WriteFolded writes FoldedStacks to w.
func (p *Profile) WriteFolded(w io.Writer) error {
	_, err := io.WriteString(w, p.FoldedStacks())
	return err
}
