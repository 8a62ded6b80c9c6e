package main

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"colock/internal/lock"
)

func newTestShell(t *testing.T, prime bool) (*shell, *bytes.Buffer) {
	t.Helper()
	return newTestShellPolicy(t, prime, lock.PolicyDetect)
}

func newTestShellPolicy(t *testing.T, prime bool, policy lock.Policy) (*shell, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	s, err := newShell(prime, policy, t.TempDir(), "", bufio.NewWriter(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return s, &buf
}

func runScript(t *testing.T, s *shell, lines ...string) string {
	t.Helper()
	in := bufio.NewScanner(strings.NewReader(strings.Join(lines, "\n")))
	s.repl(in)
	s.out.Flush()
	return ""
}

func TestShellSelectAndCommit(t *testing.T) {
	s, buf := newTestShell(t, true)
	runScript(t, s,
		`SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE`,
		`.locks`,
		`.commit`,
		`.quit`,
	)
	out := buf.String()
	for _, want := range []string{
		"began transaction",
		"X    db1/seg1/cells/c1/robots/r1",
		"S    db1/seg2/effectors/e2", // rule 4' propagation visible
		"committed transaction",
		"bye",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	if s.eng.Manager.LockCount() != 0 {
		t.Error("locks leaked")
	}
}

func TestShellDMLAndAbort(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`UPDATE e SET tool = 'mut' FROM e IN effectors WHERE e.eff_id = 'e1'`,
		`.abort`,
		`.db`,
		`.quit`,
	)
	out := buf.String()
	if !strings.Contains(out, "1 affected") {
		t.Errorf("no affected count:\n%s", out)
	}
	if !strings.Contains(out, "aborted transaction") {
		t.Errorf("no abort:\n%s", out)
	}
	// The .db dump shows the original value (abort undid the change).
	if !strings.Contains(out, `tool:"t1"`) || strings.Contains(out, `tool:"mut"`) {
		t.Errorf("abort did not undo:\n%s", out)
	}
}

func TestShellErrorsAndCommands(t *testing.T) {
	s, buf := newTestShell(t, true)
	runScript(t, s,
		`.help`,
		`.locks`,   // no active txn
		`.commit`,  // no active txn
		`.unknown`, // unknown command
		`garbage query`,
		``, // blank line
		`SELECT e FROM e IN effectors FOR READ`,
		`.locks`,
		`.quit`, // aborts the open txn
	)
	out := buf.String()
	for _, want := range []string{
		"Commands:",
		"no active transaction",
		"unknown command",
		"error:",
		"3 result(s)",
		"aborted open transaction",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}

func TestShellAuthorizationDenied(t *testing.T) {
	s, buf := newTestShell(t, true)
	runScript(t, s,
		`INSERT INTO effectors VALUE {eff_id: 'e9', tool: 't9'}`,                               // no right
		`UPDATE r SET trajectory = 'x' FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r1'`, // cells: allowed
		`.commit`,
		`.quit`,
	)
	out := buf.String()
	if !strings.Contains(out, "no right to modify") {
		t.Errorf("insert not denied:\n%s", out)
	}
	if !strings.Contains(out, "1 affected") {
		t.Errorf("authorized update failed:\n%s", out)
	}
}

func TestShellEmptyInputQuits(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s) // immediate EOF
	if !strings.Contains(buf.String(), "bye") {
		t.Error("no farewell on EOF")
	}
}

func TestShellRule4PrimeOff(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE`,
		`.locks`,
		`.abort`,
		`.quit`,
	)
	out := buf.String()
	// Plain rule 4: the effectors are X-locked, not S-locked.
	if !strings.Contains(out, "X    db1/seg2/effectors/e2") {
		t.Errorf("rule 4 did not X-lock the shared effector:\n%s", out)
	}
}

func TestShellProjectionAndCollections(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`SELECT r.trajectory FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r2' FOR READ`,
		`.commit`,
		`.quit`,
	)
	out := buf.String()
	if !strings.Contains(out, `cells/c1/robots/r2/trajectory = "tr2"`) {
		t.Errorf("projection missing:\n%s", out)
	}
}

func TestShellCreateRelation(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`CREATE RELATION tools IN SEGMENT seg3 KEY tool_id {tool_id: str, vendor: str}`,
		`INSERT INTO tools VALUE {tool_id: 't1', vendor: 'acme'}`,
		`.commit`,
		`SELECT x FROM x IN tools FOR READ`,
		`.commit`,
		`CREATE RELATION tools IN SEGMENT seg3 KEY tool_id {tool_id: str}`, // duplicate
		`.quit`,
	)
	out := buf.String()
	if !strings.Contains(out, "created relation tools") {
		t.Errorf("create missing:\n%s", out)
	}
	if !strings.Contains(out, `tools/t1 = {tool_id:"t1", vendor:"acme"}`) {
		t.Errorf("query over DDL relation failed:\n%s", out)
	}
	if !strings.Contains(out, "error: schema: duplicate relation") {
		t.Errorf("duplicate create not rejected:\n%s", out)
	}
}

func TestShellGraphAndUnits(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`.graph cells`,
		`.graph`,
		`.graph nowhere`,
		`.units cells c1`,
		`.units`,
		`.units cells zz`,
		`.quit`,
	)
	out := buf.String()
	for _, want := range []string{
		`HoLU (Relation "cells")`,
		`BLU ("ref")  - - -> HeLU (C.O. "effectors")`,
		"usage: .graph <relation>",
		"outer unit: 22 nodes",
		"inner unit effectors/e2 (depth 1)",
		"o-> cells/c1/robots/r2/effectors/e2",
		"usage: .units <relation> <key>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "error:") != 2 {
		t.Errorf("expected 2 errors (unknown relation, unknown object):\n%s", out)
	}
}

func TestShellTrace(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`.trace`, // empty before any query
		`SELECT e FROM e IN effectors WHERE e.eff_id = 'e1' FOR READ`,
		`.trace`,
		`.commit`,
		`.trace`, // now includes releases
		`.quit`,
	)
	out := buf.String()
	for _, want := range []string{
		"no lock events yet",
		"grant",
		"S    db1/seg2/effectors/e1",
		"release",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
}
