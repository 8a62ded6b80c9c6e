package health

import (
	"fmt"
	"time"
)

// State is the SLO verdict.
type State int

const (
	// StateOK: recent windows are within every threshold.
	StateOK State = iota
	// StateWarn: thresholds have been breached for WarnAfter consecutive
	// windows but the burn has not yet reached CritAfter.
	StateWarn
	// StateCritical: CritAfter consecutive windows breached; if an
	// auto-admission policy is attached, the manager is degrading load.
	StateCritical
)

// String names the state as it appears in reports and metrics.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarn:
		return "warn"
	case StateCritical:
		return "critical"
	}
	return "state?"
}

// SLO declares the health thresholds and the burn-rate pacing of the
// ok → warn → critical state machine. A threshold left at zero is not
// evaluated; an entirely zero SLO disables grading.
type SLO struct {
	// MaxAbortRate is the per-window aborted fraction (victims + wait-die
	// + timeouts over attempts) above which the window breaches.
	MaxAbortRate float64
	// MaxWaitP99 is the per-window p99 wait latency above which the
	// window breaches.
	MaxWaitP99 time.Duration
	// MaxWaiterDepth is the blocked-transaction count (sampled at
	// Advance) above which the window breaches.
	MaxWaiterDepth int

	// WarnAfter consecutive breaching windows move ok → warn (default 1).
	WarnAfter int
	// CritAfter consecutive breaching windows move to critical
	// (default 3).
	CritAfter int
	// RecoverAfter consecutive clean windows move any state back to ok
	// (default 2). There is no critical → warn easing: hysteresis means a
	// critical verdict stands until the system is demonstrably clean.
	RecoverAfter int
}

// DefaultSLO is the threshold set both daemons grade against, and the one
// colockreplay assumes of a journal unless told otherwise: a replayed
// verdict matches the live one only if both sides use the same numbers.
var DefaultSLO = SLO{
	MaxAbortRate:   0.05,
	MaxWaitP99:     250 * time.Millisecond,
	MaxWaiterDepth: 64,
}

func (c SLO) withDefaults() SLO {
	if c.WarnAfter <= 0 {
		c.WarnAfter = 1
	}
	if c.CritAfter <= 0 {
		c.CritAfter = 3
	}
	if c.CritAfter < c.WarnAfter {
		c.CritAfter = c.WarnAfter
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 2
	}
	return c
}

// enabled reports whether any threshold is set.
func (c SLO) enabled() bool {
	return c.MaxAbortRate > 0 || c.MaxWaitP99 > 0 || c.MaxWaiterDepth > 0
}

// breach grades one closed window (depth is the waiter count sampled at the
// same Advance) and explains the first violated threshold.
func (c SLO) breach(ws WindowStats, depth int) (bool, string) {
	if !c.enabled() {
		return false, ""
	}
	if c.MaxAbortRate > 0 {
		if ar := ws.AbortRate(); ar > c.MaxAbortRate {
			return true, fmt.Sprintf("abort rate %.3f > %.3f", ar, c.MaxAbortRate)
		}
	}
	if c.MaxWaitP99 > 0 && ws.WaitP99 > c.MaxWaitP99 {
		return true, fmt.Sprintf("wait p99 %s > %s", ws.WaitP99, c.MaxWaitP99)
	}
	if c.MaxWaiterDepth > 0 && depth > c.MaxWaiterDepth {
		return true, fmt.Sprintf("waiter depth %d > %d", depth, c.MaxWaiterDepth)
	}
	return false, ""
}

// Transition is one SLO state change, delivered to OnTransition listeners.
type Transition struct {
	// From and To are the states around the change.
	From, To State
	// Reason explains the threshold that burned (empty on recovery).
	Reason string
	// Window is the closed window whose grading caused the change.
	Window WindowStats
	// WaiterDepth is the blocked-transaction count sampled at the
	// triggering Advance.
	WaiterDepth int
}

// sloMachine is the burn-rate state machine: a breaching window extends the
// breach streak (warn at WarnAfter, critical at CritAfter), a clean window
// extends the clean streak (back to ok at RecoverAfter). Either kind of
// window zeroes the opposite streak, which is the hysteresis: one clean
// window inside a burn neither recovers nor resets progress toward
// critical more than it must, and a critical verdict never eases to warn —
// it holds until RecoverAfter consecutive clean windows.
type sloMachine struct {
	cfg          SLO
	state        State
	breachStreak int
	cleanStreak  int
	lastReason   string
}

// observe grades one closed window and reports a transition if the state
// changed.
func (sm *sloMachine) observe(ws WindowStats, depth int) (Transition, bool) {
	burned, reason := sm.cfg.breach(ws, depth)
	old := sm.state
	if burned {
		sm.breachStreak++
		sm.cleanStreak = 0
		sm.lastReason = reason
		switch {
		case sm.breachStreak >= sm.cfg.CritAfter:
			sm.state = StateCritical
		case sm.breachStreak >= sm.cfg.WarnAfter && sm.state == StateOK:
			sm.state = StateWarn
		}
	} else {
		sm.cleanStreak++
		sm.breachStreak = 0
		if sm.cleanStreak >= sm.cfg.RecoverAfter {
			sm.state = StateOK
			sm.lastReason = ""
		}
	}
	if sm.state == old {
		return Transition{}, false
	}
	return Transition{From: old, To: sm.state, Reason: reason, Window: ws}, true
}
