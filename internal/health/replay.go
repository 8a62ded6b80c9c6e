package health

import (
	"time"

	"colock/internal/journal"
)

// Replay grades a recorded journal with the machine that grades the present:
// a fresh monitor anchored at the recording's first timestamp consumes every
// record, its window clock advanced along the records' own timestamps and
// finally one window past the last of them, so every window of the recording
// is closed. It returns that monitor — State, Report and Windows then say
// what a live monitor would have served at the end of the journal — and the
// SLO transitions it made on the way, or a nil monitor when no record carries
// a timestamp. A coalesced journal.KindFastPath record counts as its Hits;
// journal.KindHealth notes and journal.KindReset markers are skipped.
func Replay(recs []journal.Record, window time.Duration, slo SLO) (*Monitor, []Transition) {
	var first, last time.Time
	for i := range recs {
		if at := recs[i].At; !at.IsZero() {
			if first.IsZero() {
				first = at
			}
			if at.After(last) {
				last = at
			}
		}
	}
	if first.IsZero() {
		return nil, nil
	}
	if window <= 0 {
		window = time.Second
	}
	mon := NewMonitor(Options{
		Window: window,
		Retain: min(int(last.Sub(first)/window)+2, 100000),
		SLO:    slo,
		Start:  first,
	})
	var trs []Transition
	mon.OnTransition(func(tr Transition) { trs = append(trs, tr) })
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case journal.KindFastPath:
			mon.AddFastPathHits(max(rec.Hits, 1))
			continue
		case journal.KindHealth, journal.KindReset:
			continue
		}
		mon.Record(rec.Event)
		if !rec.At.IsZero() {
			mon.Advance(rec.At)
		}
	}
	mon.Advance(last.Add(window))
	return mon, trs
}
