package main

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/obs"
)

func TestShellMetrics(t *testing.T) {
	s, buf := newTestShell(t, true)
	runScript(t, s,
		`SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE`,
		`.metrics`,
		`.commit`,
		`.quit`,
	)
	out := buf.String()
	for _, want := range []string{
		"Lock-manager counters",
		"requests",
		"Protocol rule applications",
		"downward_propagations",
		"rule4prime_weakened",
		"Latencies by op, mode and unit kind",
		"p50", "p95", "p99",
		"acquire",
		"entry-point", // rule-4' S locks on the effectors classify as entry points
	} {
		if !strings.Contains(out, want) {
			t.Errorf(".metrics output missing %q:\n%s", want, out)
		}
	}
	// Every manager counter is a row of the first table, every rule
	// counter one of the second.
	mgr, rules, _ := strings.Cut(out, "Protocol rule applications")
	for _, tc := range []struct {
		table string
		cs    []lock.Counter
		n     int
	}{
		{mgr, lock.Stats{}.Counters(), 21},
		{rules, core.ProtocolStats{}.Counters(), 11},
	} {
		if len(tc.cs) != tc.n {
			t.Errorf("%d counters, want %d", len(tc.cs), tc.n)
		}
		for _, c := range tc.cs {
			if !regexp.MustCompile(`(?m)^\s*` + c.Name + `\s+\d+\s*$`).MatchString(tc.table) {
				t.Errorf(".metrics has no %s row", c.Name)
			}
		}
	}
}

func TestShellQueues(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR READ`,
		`.queues`,
		`.queues all`,
		`.commit`,
		`.quit`,
	)
	out := buf.String()
	if !strings.Contains(out, "no contended resources") {
		t.Errorf(".queues without contention should say so:\n%s", out)
	}
	if !strings.Contains(out, "db1/seg1/cells/c1") || !strings.Contains(out, "granted txn") {
		t.Errorf(".queues all should list held locks:\n%s", out)
	}
}

// Forced two-transaction deadlock: the shell runs with -deadlock none, two
// background transactions drive the lock manager directly into a cycle, and
// .dot must emit well-formed DOT naming the victim edge.
func TestShellDotDeadlock(t *testing.T) {
	s, buf := newTestShellPolicy(t, false, lock.PolicyNone)
	m := s.eng.Manager

	a, b := lock.Resource("db1/seg1/cells/c1"), lock.Resource("db1/seg2/effectors/e1")
	if err := m.AcquireCtx(context.Background(), 101, a, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireCtx(context.Background(), 102, b, lock.X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.AcquireCtx(context.Background(), 101, b, lock.X) }()
	go func() { errs <- m.AcquireCtx(context.Background(), 102, a, lock.X) }()
	for i := 0; m.WaitingTxns() < 2; i++ {
		if i > 2000 {
			t.Fatal("deadlock never formed")
		}
		time.Sleep(time.Millisecond)
	}

	runScript(t, s, `.dot`, `.quit`)
	out := buf.String()
	start := strings.Index(out, "digraph")
	end := strings.Index(out, "}\n")
	if start < 0 || end < start {
		t.Fatalf("no DOT graph in output:\n%s", out)
	}
	dot := out[start : end+2]
	if err := obs.ValidateDOT(dot); err != nil {
		t.Fatalf(".dot output fails the DOT grammar check: %v\n%s", err, dot)
	}
	if !strings.Contains(dot, "(victim)") {
		t.Errorf(".dot must mark the victim transaction:\n%s", dot)
	}
	if !strings.Contains(dot, `(victim edge)`) || !strings.Contains(dot, "t102 -> t101") {
		t.Errorf(".dot must name the victim edge t102 -> t101:\n%s", dot)
	}

	// Resolve by hand so the goroutines exit.
	m.ReleaseAll(102)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(101)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestShellDotEmpty(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s, `.dot`, `.quit`)
	out := buf.String()
	start := strings.Index(out, "digraph")
	if start < 0 {
		t.Fatalf("no DOT graph:\n%s", out)
	}
	end := strings.Index(out, "}\n")
	if err := obs.ValidateDOT(out[start : end+2]); err != nil {
		t.Errorf("empty .dot invalid: %v", err)
	}
}
