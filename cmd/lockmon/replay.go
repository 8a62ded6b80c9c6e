package main

import (
	"fmt"
	"time"

	"colock/internal/health"
	"colock/internal/journal"
)

// replayReport builds the health report a live monitor would have served at
// the end of the journal: a fresh monitor anchored at the recording's first
// timestamp consumes every event, its window clock advanced along the
// events' own timestamps, and the final report renders through the same
// panels as a live poll. The SLO thresholds mirror colockshell's defaults,
// so the offline verdict is comparable to the live one.
func replayReport(dir string, window time.Duration) (health.Report, error) {
	if window <= 0 {
		window = time.Second
	}
	recs, torn, err := journal.ReadAll(dir)
	if err != nil {
		return health.Report{}, err
	}
	if len(recs) == 0 {
		return health.Report{}, fmt.Errorf("journal %s is empty", dir)
	}
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
		return health.Report{}, fmt.Errorf("journal %s has no timestamped records", dir)
	}
	retain := int(last.Sub(first)/window) + 2
	if retain > 100000 {
		retain = 100000
	}
	mon := health.NewMonitor(health.Options{
		Window: window,
		Retain: retain,
		SLO:    health.DefaultSLO,
		Start:  first,
	})
	for i := range recs {
		rec := recs[i]
		switch rec.Kind {
		case "fastpath":
			mon.AddFastPathHits(max(rec.Hits, 1))
			continue
		case "health", "reset":
			continue
		}
		mon.Record(rec.Event())
		if !rec.At.IsZero() {
			mon.Advance(rec.At)
		}
	}
	mon.Advance(last.Add(window))
	rep := mon.Report(10)
	if torn {
		rep.Reason = joinReason(rep.Reason, "journal tail torn (crash mid-append)")
	}
	return rep, nil
}

// joinReason appends a note to a possibly-empty reason string.
func joinReason(reason, note string) string {
	if reason == "" {
		return note
	}
	return reason + "; " + note
}
