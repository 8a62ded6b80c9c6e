package main

import (
	"bufio"
	"bytes"
	"regexp"
	"strings"
	"testing"

	"colock/internal/lock"
	"colock/internal/trace"
)

// .spans shows the span tree of the running transaction, then the flight
// recorder's view once no transaction is active.
func TestShellSpans(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s,
		`.spans`, // nothing yet
		`SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR UPDATE`,
		`.spans`, // span tree of the live txn
		`.commit`,
		`.spans`, // flight recorder view
		`.quit`,
	)
	out := buf.String()
	if !strings.Contains(out, "no spans recorded yet") {
		t.Errorf("missing empty-recorder message:\n%s", out)
	}
	if !strings.Contains(out, "span tree of transaction") {
		t.Errorf("missing live span tree:\n%s", out)
	}
	for _, want := range []string{"lock", "upward", "acquire"} {
		if !strings.Contains(out, want) {
			t.Errorf(".spans output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "recent spans (flight recorder") {
		t.Errorf("missing flight-recorder view after commit:\n%s", out)
	}
}

// .profile is empty without contention and .incident without incidents.
func TestShellProfileAndIncidentEmpty(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s, `.profile`, `.incident`, `.quit`)
	out := buf.String()
	if !strings.Contains(out, "profile is empty") {
		t.Errorf("missing empty-profile message:\n%s", out)
	}
	if !strings.Contains(out, "no incidents recorded") {
		t.Errorf("missing empty-incident message:\n%s", out)
	}
}

// .forcetimeout must end in a timeout error, an automatic incident dump that
// parses, and a non-empty contention profile naming the contended lock.
func TestShellForceTimeout(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	s, err := newShell(false, lock.PolicyDetect, dir, "", bufio.NewWriter(&buf))
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, s, `.forcetimeout`, `.profile`, `.quit`)
	out := buf.String()
	if !strings.Contains(out, "timeout") {
		t.Fatalf("no timeout reported:\n%s", out)
	}
	infos := s.eng.Incidents.Incidents()
	if len(infos) != 1 || infos[0].Reason != "timeout" {
		t.Fatalf("incidents = %+v, want one timeout", infos)
	}
	inc, err := trace.ParseIncidentFile(infos[0].Path)
	if err != nil {
		t.Fatalf("incident file does not parse: %v", err)
	}
	if len(inc.Spans) == 0 || inc.Queues == nil || !strings.Contains(inc.DOT, "digraph") {
		t.Errorf("incident missing spans/queues/DOT: reason=%s txn=%d", inc.Reason, inc.Txn)
	}
	if !regexp.MustCompile(`(?m)^db1;[^ ]+;X [1-9][0-9]*$`).MatchString(out) {
		t.Errorf(".profile after forced timeout shows no blocked X lock:\n%s", out)
	}
}

// .forcedeadlock must pick a victim, dump an incident, and refuse to run
// under -deadlock none.
func TestShellForceDeadlock(t *testing.T) {
	s, buf := newTestShellPolicy(t, false, lock.PolicyDetect)
	runScript(t, s, `.forcedeadlock`, `.quit`)
	out := buf.String()
	if !strings.Contains(out, "deadlock") {
		t.Fatalf("no deadlock reported:\n%s", out)
	}
	infos := s.eng.Incidents.Incidents()
	if len(infos) != 1 || infos[0].Reason != "victim" {
		t.Fatalf("incidents = %+v, want one victim", infos)
	}
	if _, err := trace.ParseIncidentFile(infos[0].Path); err != nil {
		t.Fatalf("incident file does not parse: %v", err)
	}

	sn, bufn := newTestShellPolicy(t, false, lock.PolicyNone)
	runScript(t, sn, `.forcedeadlock`, `.quit`)
	if !strings.Contains(bufn.String(), "restart with -deadlock") {
		t.Errorf("policy none did not refuse:\n%s", bufn.String())
	}
	if len(sn.eng.Incidents.Incidents()) != 0 {
		t.Errorf("policy none wrote an incident")
	}
}
