// Command colockreplay is the offline forensics analyzer for colock's
// durable lock-event journal. Given a journal directory written by
// journal.Writer (colockshell -journal, or any embedder), it reconstructs
// what the live dashboards could only sample:
//
//	colockreplay -dir ./journal                 # full report
//	colockreplay -dir ./journal -json out.json  # machine-readable report
//	colockreplay -dir a -diff b                 # compare two journals
//	colockreplay -dir ./journal -around incident-0001-victim-txn7.jsonl
//
// The -around mode reads an incident dump's journal offset (and timestamp)
// and replays only the window leading up to the incident: the report's
// open-waits section is then the waits-for graph at the moment of the dump.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/trace"
)

func main() {
	var (
		dir     = flag.String("dir", "", "journal directory to analyze (required)")
		diffDir = flag.String("diff", "", "second journal directory: print a side-by-side comparison")
		around  = flag.String("around", "", "incident JSONL file: replay only the lead-up to the incident")
		before  = flag.Duration("before", time.Minute, "history window before the incident (with -around)")
		convoyN = flag.Int("convoy", 3, "minimum simultaneous waiters that count as a convoy")
		window  = flag.Duration("window", time.Second, "SLO replay window width")
		top     = flag.Int("top", 10, "rows in the top lists")
		jsonOut = flag.String("json", "", "write the machine-readable report to this path ('-' for stdout)")

		sloAbort = flag.Float64("slo-abort", health.DefaultSLO.MaxAbortRate, "SLO: max per-window abort rate")
		sloP99   = flag.Duration("slo-p99", health.DefaultSLO.MaxWaitP99, "SLO: max per-window wait p99")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "colockreplay: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := Config{
		ConvoyDepth: *convoyN,
		Window:      *window,
		Top:         *top,
		SLO:         health.DefaultSLO,
	}
	cfg.SLO.MaxAbortRate, cfg.SLO.MaxWaitP99 = *sloAbort, *sloP99

	recs, torn, err := journal.ReadAll(*dir)
	if err != nil {
		fatal(err)
	}

	var inc *trace.Incident
	if *around != "" {
		inc, err = trace.ParseIncidentFile(*around)
		if err != nil {
			fatal(err)
		}
		recs = filterAround(recs, inc, *before)
	}

	rep := analyze(*dir, recs, torn, cfg)

	if *diffDir != "" {
		recsB, tornB, err := journal.ReadAll(*diffDir)
		if err != nil {
			fatal(err)
		}
		repB := analyze(*diffDir, recsB, tornB, cfg)
		printDiff(os.Stdout, rep, repB)
		if *jsonOut != "" {
			writeJSON(*jsonOut, map[string]*Report{"a": rep, "b": repB})
		}
		return
	}

	if inc != nil {
		printIncidentHeader(os.Stdout, *around, inc, len(recs))
	}
	printReport(os.Stdout, rep, cfg)
	if *jsonOut != "" {
		writeJSON(*jsonOut, rep)
	}
}

// filterAround keeps the records leading up to the incident: Seq at or below
// the dump's journal offset (when one was recorded) and At inside
// [incident-before, incident]. Incident timestamps come from the same
// process clock as event timestamps, so the time bound is sound; the offset
// bound additionally cuts events journaled after the dump with earlier
// timestamps.
func filterAround(recs []journal.Record, inc *trace.Incident, before time.Duration) []journal.Record {
	var out []journal.Record
	from := inc.At.Add(-before)
	for _, r := range recs {
		if inc.JournalOffset > 0 && r.Seq > inc.JournalOffset {
			continue
		}
		if !inc.At.IsZero() && !r.At.IsZero() {
			if r.At.After(inc.At) || r.At.Before(from) {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "colockreplay: %v\n", err)
	os.Exit(1)
}

// writeJSON writes v indented to path, or stdout for "-".
func writeJSON(path string, v any) {
	var f *os.File
	if path == "-" {
		f = os.Stdout
	} else {
		var err error
		f, err = os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}
