package main

// Text rendering for the analysis report. Pure io.Writer funcs: testable
// without a terminal.

import (
	"fmt"
	"io"
	"time"

	"colock/internal/journal"
	"colock/internal/trace"
)

// printIncidentHeader introduces an -around replay.
func printIncidentHeader(w io.Writer, path string, inc *trace.Incident, kept int) {
	fmt.Fprintf(w, "incident  %s\n", path)
	fmt.Fprintf(w, "  reason=%s txn=%d resource=%s mode=%s\n", inc.Reason, inc.Txn, inc.Resource, inc.Mode)
	fmt.Fprintf(w, "  at=%s journal-offset=%d → replaying %d records leading up to it\n\n",
		inc.At.Format(time.RFC3339Nano), inc.JournalOffset, kept)
}

// printReport renders the full text report.
func printReport(w io.Writer, r *Report, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "journal   %s\n", r.Journal)
	fmt.Fprintf(w, "records   %d", r.Records)
	if r.Torn {
		fmt.Fprintf(w, "  (torn tail: crash mid-append, final record discarded)")
	}
	fmt.Fprintln(w)
	if !r.From.IsZero() {
		fmt.Fprintf(w, "span      %s … %s  (%.1fms)\n", r.From.Format(time.RFC3339Nano), r.To.Format(time.RFC3339Nano), r.SpanMs)
	}
	fmt.Fprintf(w, "txns      %d   abort rate %.3f\n", r.Txns, r.AbortRate)
	fmt.Fprintf(w, "events    grants=%d waits=%d victims=%d timeouts=%d sheds=%d fastpath=%d releases=%d\n",
		r.Kinds["grant"]+r.Kinds["convert"], r.Kinds["wait"], r.Kinds["victim"],
		r.Kinds["timeout"], r.Kinds["shed"], r.Kinds[journal.KindFastPath], r.Kinds["release"]+r.Kinds["release-all"])
	if r.WaitCount > 0 {
		fmt.Fprintf(w, "waits     n=%d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			r.WaitCount, r.WaitP50Ms, r.WaitP95Ms, r.WaitP99Ms, r.WaitMaxMs)
	}

	fmt.Fprintf(w, "\nSLO replay (%s windows): final=%s worst=%s over %d windows\n",
		cfg.Window, r.SLO.FinalState, r.SLO.WorstState, r.SLO.Windows)
	for _, tr := range r.SLO.Transitions {
		fmt.Fprintf(w, "  %s\n", tr)
	}

	if len(r.Hot) > 0 {
		fmt.Fprintf(w, "\nhot resources (by blocked events)\n")
		for _, h := range r.Hot {
			fmt.Fprintf(w, "  %-48s %-3s blocks=%-5d blocked=%.2fms\n", h.Resource, h.Mode, h.Blocks, h.BlockedMs)
		}
	}

	if len(r.Convoys) > 0 {
		fmt.Fprintf(w, "\nconvoys (≥%d simultaneous waiters)\n", cfg.ConvoyDepth)
		for _, c := range r.Convoys {
			fmt.Fprintf(w, "  %-48s peak=%-3d waiters=%-4d dur=%.2fms\n", c.Resource, c.PeakDepth, c.Waiters, c.DurMs)
			if len(c.Timeline) > 1 {
				fmt.Fprintf(w, "    depth:")
				for _, p := range c.Timeline {
					fmt.Fprintf(w, " %.1fms→%d", p.AtMs, p.Depth)
				}
				fmt.Fprintln(w)
			}
		}
	}

	if len(r.Cycles) > 0 {
		fmt.Fprintf(w, "\nwaits-for cycles (%d near misses)\n", r.NearMisses)
		for _, c := range r.Cycles {
			tag := "caught"
			if c.NearMiss {
				tag = "NEAR MISS"
			}
			fmt.Fprintf(w, "  [%s] %s lasted %.2fms, broken by %s", tag, shortTxns(c.Txns), c.LastedMs, c.BrokenBy)
			if c.BrokenTxn != 0 {
				fmt.Fprintf(w, " (txn %d)", c.BrokenTxn)
			}
			fmt.Fprintln(w)
		}
	}

	if len(r.CriticalPaths) > 0 {
		fmt.Fprintf(w, "\nblocking critical paths\n")
		for _, p := range r.CriticalPaths {
			fmt.Fprintf(w, "  txn %-6d blocked %.2fms over %d waits\n", p.Txn, p.BlockedMs, len(p.Steps))
			for _, s := range p.Steps {
				fmt.Fprintf(w, "    %-46s %-3s %8.2fms %-14s", s.Resource, s.Mode, s.WaitMs, s.Outcome)
				if len(s.Blockers) > 0 {
					fmt.Fprintf(w, " behind %v", s.Blockers)
				}
				fmt.Fprintln(w)
			}
		}
	}

	if len(r.OpenWaits) > 0 {
		fmt.Fprintf(w, "\nstill blocked at stream end (waits-for graph at the cut)\n")
		for _, ow := range r.OpenWaits {
			fmt.Fprintf(w, "  txn %-6d waits %-46s %-3s for %.2fms", ow.Txn, ow.Resource, ow.Mode, ow.SinceMs)
			if len(ow.Blockers) > 0 {
				fmt.Fprintf(w, " behind %v", ow.Blockers)
			}
			fmt.Fprintln(w)
		}
	}
}

// printDiff renders the two-journal comparison.
func printDiff(w io.Writer, a, b *Report) {
	fmt.Fprintf(w, "%-20s %-32s %-32s\n", "", trunc(a.Journal, 32), trunc(b.Journal, 32))
	for _, l := range diffReport(a, b) {
		marker := " "
		if l.A != l.B {
			marker = "≠"
		}
		fmt.Fprintf(w, "%-20s %-32s %-32s %s\n", l.Name, l.A, l.B, marker)
	}
}

// trunc keeps the tail of long paths.
func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}
