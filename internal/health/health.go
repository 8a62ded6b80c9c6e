// Package health is the lock manager's self-observation layer: a windowed
// time-series of lock-event rates, a top-K hot-resource sketch, and an SLO
// engine that grades each closed window against declarative thresholds and
// runs an ok → warn → critical state machine with hysteresis.
//
// Where package obs answers "how slow are locks on average, ever" and
// package trace answers "what did this transaction go through", this package
// answers "is the lock manager healthy RIGHT NOW, and trending which way" —
// the SLA response-time/abort-rate view of OLTP health under contention. The
// verdict can optionally drive the manager's admission gate (auto-degrade on
// critical, auto-recover on ok), closing the loop the paper's protocol
// leaves open: the lock manager reacting to its own measured contention.
//
// Clock discipline: nothing here calls time.Now on the event path. The
// Monitor is a lock.EventSink fed by the manager's tracer, and
// every event already carries the timestamp the tracer stamped; windows are
// rotated only by an explicit Advance(now) from an observation point — the
// /health HTTP handler, the colockshell .health command, a test. Between
// Advance calls, recording costs a few atomic adds.
package health

import (
	"sync"
	"sync/atomic"
	"time"

	"colock/internal/lock"
	"colock/internal/obs"
)

// Rate indexes the per-window event-rate counters.
type Rate int

const (
	// RateAcquires counts granted requests (grants + conversions,
	// fast-path and queued alike).
	RateAcquires Rate = iota
	// RateFastPath counts protocol fast-path hits (requests served
	// without a lock-manager round-trip; see RecordFastPathHit).
	RateFastPath
	// RateBlocks counts requests that queued (wait events).
	RateBlocks
	// RateVictims counts detected deadlock victims.
	RateVictims
	// RateWaitDie counts wait-die prevention deaths.
	RateWaitDie
	// RateTimeouts counts requests withdrawn by acquire deadlines.
	RateTimeouts
	// RateSheds counts acquires refused by degrade-mode admission control.
	RateSheds
	// RateRetries counts transaction restarts observed via the retry
	// layer (see the Retry method / resilience.Observer).
	RateRetries

	nRates
)

var rateNames = [nRates]string{
	"acquires", "fast_path_hits", "blocks", "victims", "wait_die",
	"timeouts", "sheds", "retries",
}

// String names the rate as it appears in reports and metrics.
func (r Rate) String() string {
	if r >= 0 && int(r) < len(rateNames) {
		return rateNames[r]
	}
	return "rate?"
}

// liveSlots is the ring of live accumulation windows. Events are routed by
// their own timestamp, so a slightly stale Advance never mis-attributes
// traffic — as long as Advance runs at least once per liveSlots−1 windows.
const liveSlots = 4

// window is one live accumulation bucket: lock-free counters plus a wait
// histogram (reusing the obs HDR layout, so windowed quantiles cost one
// fixed-size array).
type window struct {
	counts [nRates]atomic.Uint64
	wait   obs.Histogram
}

func (w *window) reset() {
	for i := range w.counts {
		w.counts[i].Store(0)
	}
	w.wait.Reset()
}

// WindowStats is one closed window of the time series.
type WindowStats struct {
	// Epoch is the window's ordinal since the monitor's start.
	Epoch int64
	// Start is the window's nominal start time.
	Start time.Time
	// Counts holds the per-Rate event counts of the window.
	Counts [nRates]uint64
	// Wait-latency distribution of the window (blocked acquisitions and
	// withdrawn requests).
	WaitCount                          uint64
	WaitP50, WaitP95, WaitP99, WaitMax time.Duration
}

// AbortRate is the window's aborted fraction: deaths (victims + wait-die +
// timeouts) over attempts (grants + deaths). Zero when the window saw no
// traffic.
func (ws WindowStats) AbortRate() float64 {
	aborts := ws.Counts[RateVictims] + ws.Counts[RateWaitDie] + ws.Counts[RateTimeouts]
	attempts := ws.Counts[RateAcquires] + aborts
	if attempts == 0 {
		return 0
	}
	return float64(aborts) / float64(attempts)
}

// Options configures a Monitor.
type Options struct {
	// Window is the time-series bucket width (default 1s).
	Window time.Duration
	// Retain is how many closed windows the series keeps (default 60).
	Retain int
	// TopK is the hot-resource sketch capacity (default 32 tracked keys).
	TopK int
	// SLO sets the health thresholds and state-machine pacing. A zero
	// value disables grading: the state stays ok.
	SLO SLO
	// WaiterDepth, when set, is sampled once per Advance and graded
	// against SLO.MaxWaiterDepth; wire it to lock.Manager.WaitingTxns.
	WaiterDepth func() int
	// GrantPath, when set, is sampled at report time to expose the
	// manager's grant-path counters (summary fast checks, deferred
	// detections, detector runs) in the health report; wire it to
	// lock.Manager.Stats.
	GrantPath func() lock.Stats
	// Start anchors the window clock (default time.Now at construction —
	// construction is not a hot path).
	Start time.Time
}

// Monitor is the health monitor. It implements lock.EventSink (attach with
// Manager.AttachSink), the shape of resilience.Observer (wire with
// txn.WithRetryObserver). Its counts are never reset: a reader that wants one
// phase compares two reports. All methods are safe for concurrent use.
type Monitor struct {
	winDur      time.Duration
	retain      int
	start       time.Time
	waiterDepth func() int
	grantPath   func() lock.Stats

	cur   atomic.Int64
	slots [liveSlots]window

	sketch *Sketch

	mu        sync.Mutex
	closed    []WindowStats // newest last, capped at retain
	slo       sloMachine
	lastDepth int

	listeners atomic.Pointer[[]func(Transition)]
}

// NewMonitor builds a monitor.
func NewMonitor(opts Options) *Monitor {
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if opts.Retain <= 0 {
		opts.Retain = 60
	}
	if opts.TopK <= 0 {
		opts.TopK = 32
	}
	if opts.Start.IsZero() {
		opts.Start = time.Now()
	}
	return &Monitor{
		winDur:      opts.Window,
		retain:      opts.Retain,
		start:       opts.Start,
		waiterDepth: opts.WaiterDepth,
		grantPath:   opts.GrantPath,
		sketch:      NewSketch(opts.TopK),
		slo:         sloMachine{cfg: opts.SLO.withDefaults()},
	}
}

// WindowDur returns the configured bucket width.
func (m *Monitor) WindowDur() time.Duration { return m.winDur }

// epochOf maps a timestamp to its window ordinal, clamped into the live
// slot range around the current epoch so late or early deliveries never
// touch a slot another epoch owns.
func (m *Monitor) epochOf(at time.Time) int64 {
	cur := m.cur.Load()
	if at.IsZero() {
		return cur
	}
	e := int64(at.Sub(m.start) / m.winDur)
	if e < cur {
		return cur
	}
	if e > cur+liveSlots-1 {
		return cur + liveSlots - 1
	}
	return e
}

func (m *Monitor) slotAt(at time.Time) *window {
	return &m.slots[uint64(m.epochOf(at))%liveSlots]
}

// Record consumes one lock event (the lock.EventSink implementation). It
// runs on the operation's goroutine outside all manager latches, uses the
// event's own timestamp to pick a window, and never reads the clock.
func (m *Monitor) Record(e lock.Event) {
	m.count(m.slotAt(e.At), &e)
}

// RecordBatch consumes one operation's events (lock.BatchSink). The window
// is resolved once, from the first event's timestamp: one operation's events
// are stamped within microseconds of each other.
func (m *Monitor) RecordBatch(evs []lock.Event) {
	if len(evs) == 0 {
		return
	}
	w := m.slotAt(evs[0].At)
	for i := range evs {
		m.count(w, &evs[i])
	}
}

func (m *Monitor) count(w *window, e *lock.Event) {
	switch e.KindCode() {
	case lock.KindGrant, lock.KindConvert:
		w.counts[RateAcquires].Add(1)
		if e.Waited && e.Dur > 0 {
			w.wait.Record(e.Dur)
		}
	case lock.KindWait:
		w.counts[RateBlocks].Add(1)
		m.sketch.Touch(e.Resource, e.Mode)
	case lock.KindVictim:
		if e.WaitDie {
			w.counts[RateWaitDie].Add(1)
		} else {
			w.counts[RateVictims].Add(1)
		}
		if e.Dur > 0 {
			w.wait.Record(e.Dur)
		}
		m.sketch.Touch(e.Resource, e.Mode)
	case lock.KindTimeout:
		w.counts[RateTimeouts].Add(1)
		if e.Dur > 0 {
			w.wait.Record(e.Dur)
		}
		m.sketch.Touch(e.Resource, e.Mode)
	case lock.KindShed:
		w.counts[RateSheds].Add(1)
		m.sketch.Touch(e.Resource, e.Mode)
	}
}

// RecordFastPathHit counts one protocol fast-path hit in the current
// window; wire it to core.Protocol.OnFastPathHit. Cache hits never reach
// the lock manager, so they carry no timestamp — they land in the window
// that is open right now.
func (m *Monitor) RecordFastPathHit() { m.AddFastPathHits(1) }

// AddFastPathHits counts n fast-path hits at once: journal replay feeds it
// the hit count of a coalesced journal.KindFastPath record.
func (m *Monitor) AddFastPathHits(n uint64) {
	m.slots[uint64(m.cur.Load())%liveSlots].counts[RateFastPath].Add(n)
}

// Retry records one transaction restart (the resilience.Observer shape —
// health stays dependency-free of the resilience package); wire the monitor
// with txn.WithRetryObserver, tee-ing with the RetryCollector if both are
// wanted.
func (m *Monitor) Retry(cause string, attempt int) {
	m.slots[uint64(m.cur.Load())%liveSlots].counts[RateRetries].Add(1)
}

// Done completes the resilience.Observer shape; final outcomes are already
// visible through the acquire/abort rates, so it records nothing.
func (m *Monitor) Done(attempts int, err error) {}

// OnTransition registers fn to run on every SLO state change, after the
// Advance that produced it has released the monitor's mutex — fn may call
// back into the monitor or the lock manager (the auto-admission policy
// does).
func (m *Monitor) OnTransition(fn func(Transition)) {
	if fn == nil {
		return
	}
	for {
		old := m.listeners.Load()
		var fns []func(Transition)
		if old != nil {
			fns = append(fns, *old...)
		}
		fns = append(fns, fn)
		if m.listeners.CompareAndSwap(old, &fns) {
			return
		}
	}
}

// Advance rotates the window clock to now: every window that ended before
// now is closed, graded against the SLO, appended to the retained series,
// and the hot-key sketch decays once per closed window (capped at liveSlots
// decays per call, so one late poll can't erase the sketch). Listeners
// observe any state transitions. Advance is the ONLY place windows rotate; drive it
// from observation points (HTTP polls, shell commands, test clocks), at
// least once per few windows for exact attribution. Returns the state after
// grading.
func (m *Monitor) Advance(now time.Time) State {
	target := int64(now.Sub(m.start) / m.winDur)
	if target < 0 {
		target = 0
	}
	var fired []Transition
	m.mu.Lock()
	cur := m.cur.Load()
	if target <= cur {
		st := m.slo.state
		m.mu.Unlock()
		return st
	}
	depth := 0
	if m.waiterDepth != nil {
		depth = m.waiterDepth()
	}
	m.lastDepth = depth

	closedN := int64(0)
	if gap := target - cur; gap > liveSlots {
		// Gap longer than the live ring (a poller that started late, or a
		// long idle stretch): windows in the middle are unobservable —
		// grade a bounded run of empty (healthy) windows for them — and
		// the live slots' accumulated partials close as the final
		// liveSlots windows before target. Their counts survive; only
		// their exact window attribution is approximate after such a gap.
		empties := gap - liveSlots
		if max := int64(m.retain); empties > max {
			empties = max
		}
		for e := target - liveSlots - empties; e < target-liveSlots; e++ {
			ws := WindowStats{Epoch: e, Start: m.start.Add(time.Duration(e) * m.winDur)}
			fired = m.closeWindow(ws, depth, fired)
		}
		for e := target - liveSlots; e < target; e++ {
			fired = m.closeSlot(e, depth, fired)
		}
		closedN = empties + liveSlots
	} else {
		for e := cur; e < target; e++ {
			fired = m.closeSlot(e, depth, fired)
		}
		closedN = gap
	}
	m.cur.Store(target)
	m.mu.Unlock()

	// One sketch decay per closed window, capped so a single late poll
	// cannot halve a hot key into oblivion.
	for i := int64(0); i < closedN && i < liveSlots; i++ {
		m.sketch.Decay()
	}

	if len(fired) > 0 {
		if p := m.listeners.Load(); p != nil {
			for _, t := range fired {
				for _, fn := range *p {
					fn(t)
				}
			}
		}
	}
	m.mu.Lock()
	st := m.slo.state
	m.mu.Unlock()
	return st
}

// closeSlot snapshots the live slot owning epoch e into a WindowStats,
// resets the slot for reuse, and closes the window. Caller holds m.mu.
func (m *Monitor) closeSlot(e int64, depth int, fired []Transition) []Transition {
	w := &m.slots[uint64(e)%liveSlots]
	ws := WindowStats{Epoch: e, Start: m.start.Add(time.Duration(e) * m.winDur)}
	for i := range ws.Counts {
		ws.Counts[i] = w.counts[i].Load()
	}
	snap := w.wait.Snapshot()
	ws.WaitCount = snap.Count
	ws.WaitP50 = snap.Quantile(0.50)
	ws.WaitP95 = snap.Quantile(0.95)
	ws.WaitP99 = snap.Quantile(0.99)
	ws.WaitMax = snap.Max
	w.reset() // the slot now belongs to epoch e+liveSlots
	return m.closeWindow(ws, depth, fired)
}

// closeWindow appends ws to the retained series, grades it, and collects
// any transition. Caller holds m.mu.
func (m *Monitor) closeWindow(ws WindowStats, depth int, fired []Transition) []Transition {
	m.closed = append(m.closed, ws)
	if over := len(m.closed) - m.retain; over > 0 {
		m.closed = append(m.closed[:0], m.closed[over:]...)
	}
	if t, ok := m.slo.observe(ws, depth); ok {
		t.WaiterDepth = depth
		fired = append(fired, t)
	}
	return fired
}

// State returns the current SLO verdict.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slo.state
}

// Windows returns up to n of the most recent closed windows, oldest first
// (n <= 0 returns all retained).
func (m *Monitor) Windows(n int) []WindowStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]WindowStats(nil), m.closed...)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Current snapshots the still-open window (partial, not yet graded).
func (m *Monitor) Current() WindowStats {
	cur := m.cur.Load()
	w := &m.slots[uint64(cur)%liveSlots]
	ws := WindowStats{Epoch: cur, Start: m.start.Add(time.Duration(cur) * m.winDur)}
	for i := range ws.Counts {
		ws.Counts[i] = w.counts[i].Load()
	}
	snap := w.wait.Snapshot()
	ws.WaitCount = snap.Count
	ws.WaitP50 = snap.Quantile(0.50)
	ws.WaitP95 = snap.Quantile(0.95)
	ws.WaitP99 = snap.Quantile(0.99)
	ws.WaitMax = snap.Max
	return ws
}

// TopK returns the sketch's n hottest resource+mode keys (see Sketch.TopK).
func (m *Monitor) TopK(n int) []TopEntry { return m.sketch.TopK(n) }
