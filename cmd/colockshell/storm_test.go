package main

import (
	"strings"
	"testing"
)

func TestShellChaosAndStorm(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`.chaos`,
		`.chaos victim=0.2 delay=0.1 seed=7`,
		`.chaos`,
		`.storm 4 5`,
		`.metrics`,
		`.chaos off`,
		`.chaos`,
		`.quit`,
	)
	out := buf.String()
	for _, want := range []string{
		"chaos injection is off",
		"chaos on:",
		"storm: 4 workers × 5 rounds",
		"20 commits, 0 failures",
		"retry summary:",
		"injected faults",
		"chaos injection off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestShellStormCountersAreCumulative: each storm prints its own summary, but
// the shell's retry collector — what /metrics exports as _total counters —
// only grows: two storms leave the sum of both runs' commits.
func TestShellStormCountersAreCumulative(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s, `.storm 2 3`, `.storm 3 2`)
	if got := s.retry.Attempts().Commits; got != 12 {
		t.Errorf("cumulative commits = %d, want 12 (6 + 6)", got)
	}
	if n := strings.Count(buf.String(), "-- 6 commits, 0 failures"); n != 2 {
		t.Errorf("per-storm summaries reporting 6 commits = %d, want 2:\n%s", n, buf.String())
	}
}

func TestShellChaosBadArgs(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`.chaos victim=2`,
		`.chaos frob=1`,
		`.chaos seed=x`,
		`.storm nope`,
		`.quit`,
	)
	out := buf.String()
	for _, want := range []string{
		`bad rate "2"`,
		`unknown key "frob"`,
		`bad seed "x"`,
		`bad worker count "nope"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
