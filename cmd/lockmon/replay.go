package main

import (
	"fmt"
	"time"

	"colock/internal/health"
	"colock/internal/journal"
)

// replayReport builds the health report a live monitor would have served at
// the end of the journal (health.Replay); it renders through the same panels
// as a live poll. The SLO thresholds are the daemons' defaults, so the
// offline verdict is comparable to the live one.
func replayReport(dir string, window time.Duration) (health.Report, error) {
	recs, torn, err := journal.ReadAll(dir)
	if err != nil {
		return health.Report{}, err
	}
	if len(recs) == 0 {
		return health.Report{}, fmt.Errorf("journal %s is empty", dir)
	}
	mon, _ := health.Replay(recs, window, health.DefaultSLO)
	if mon == nil {
		return health.Report{}, fmt.Errorf("journal %s has no timestamped records", dir)
	}
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
