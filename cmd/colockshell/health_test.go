package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colock/internal/health"
	"colock/internal/lock"
)

// TestShellHealthCommands drives the .health/.topk surface through the repl:
// a storm feeds the monitor (the storm's retry observer is teed into it),
// then the verdict, the JSON document, the dump file, and the top-K table
// are all produced.
func TestShellHealthCommands(t *testing.T) {
	s, buf := newTestShellPolicy(t, false, lock.PolicyWaitDie)
	dump := filepath.Join(t.TempDir(), "health.json")
	runScript(t, s,
		`.storm 4 10`,
		`.health`,
		`.health json`,
		`.health dump `+dump,
		`.topk 5`,
		`.health auto on`,
		`.health auto off`,
		`.health bogus`,
		`.quit`,
	)
	out := buf.String()
	for _, want := range []string{
		"health: ",           // verdict line
		`"state"`,            // .health json
		"written to " + dump, // .health dump
		"auto-admission on",  // .health auto on
		"auto-admission off", // .health auto off
		"usage: .health",     // bad subcommand
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}

	// The dump parses as a health.Report with a well-formed verdict, every
	// windowed rate present, and the storm's hot key in the top-K table.
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var rep health.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if rep.State != "ok" && rep.State != "warn" && rep.State != "critical" {
		t.Fatalf("bad verdict %q", rep.State)
	}
	if rep.WindowMs <= 0 {
		t.Errorf("window_ms = %v, want > 0", rep.WindowMs)
	}
	for r := health.RateAcquires; r <= health.RateRetries; r++ {
		if _, ok := rep.Current.Counts[r.String()]; !ok {
			t.Errorf("current window missing rate %q", r)
		}
	}
	found := false
	for _, e := range rep.TopK {
		if strings.Contains(e.Resource, "cells/c1") && e.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("storm hot key missing from dumped top-K: %+v", rep.TopK)
	}
	if !strings.Contains(out, "cells/c1") {
		t.Errorf(".topk table misses the hot key:\n%s", out)
	}

	// Windowed retry counts flowed through the teed observer.
	sawRetries := rep.Current.Counts["retries"]
	for _, w := range rep.Windows {
		sawRetries += w.Counts["retries"]
	}
	if sawRetries == 0 {
		t.Error("no retries recorded in any health window despite the storm")
	}
}

// .topk on a shell without contention says the table is empty and what
// fills it.
func TestShellTopKEmpty(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s, `.topk`, `.quit`)
	if out := buf.String(); !strings.Contains(out, "no contention recorded (the table counts waits, victims, timeouts and sheds") {
		t.Errorf(".topk without contention:\n%s", out)
	}
}
