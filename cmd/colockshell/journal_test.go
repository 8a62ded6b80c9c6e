package main

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"

	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/trace"
)

// TestShellJournal wires a shell with -journal and checks the full loop:
// a storm's events persist to segments, .journal reports status, the
// timeout incident records the journal offset, and reading the journal
// back yields the storm's hot key plus the lead-up to the incident.
func TestShellJournal(t *testing.T) {
	incDir, jDir := t.TempDir(), t.TempDir()
	var buf bytes.Buffer
	s, err := newShell(false, lock.PolicyDetect, incDir, jDir, bufio.NewWriter(&buf))
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, s,
		`.storm 4 3`,
		`.journal flush`,
		`.journal`,
		`.forcetimeout`,
		`.quit`,
	)
	out := buf.String()
	if !strings.Contains(out, "journal "+jDir) {
		t.Errorf(".journal output missing status header:\n%s", out)
	}
	if !strings.Contains(out, "records persisted") {
		t.Errorf(".journal output missing counters:\n%s", out)
	}
	if !strings.Contains(out, "journal closed:") {
		t.Errorf(".quit did not report the closed journal:\n%s", out)
	}

	recs, torn, err := journal.ReadAll(jDir)
	if err != nil {
		t.Fatalf("reading journal back: %v", err)
	}
	if torn {
		t.Error("clean shutdown produced a torn journal")
	}
	kinds := map[string]int{}
	hotSeen := false
	for _, r := range recs {
		kinds[r.Kind]++
		if strings.Contains(string(r.Resource), "cells/c1") {
			hotSeen = true
		}
	}
	if kinds["grant"] == 0 || kinds["release-all"] == 0 {
		t.Errorf("journal kinds = %v, want grants and releases from the storm", kinds)
	}
	if kinds["timeout"] == 0 {
		t.Errorf("journal kinds = %v, want the .forcetimeout event", kinds)
	}
	if !hotSeen {
		t.Error("journal never mentions the storm's hot key cells/c1")
	}

	// The incident header carries the journal offset, and the offset bounds
	// the Seq ordinals of everything journaled before the dump.
	infos := s.eng.Incidents.Incidents()
	if len(infos) != 1 {
		t.Fatalf("incidents = %+v, want one from .forcetimeout", infos)
	}
	if infos[0].JournalOffset == 0 {
		t.Fatal("incident recorded no journal offset")
	}
	inc, err := trace.ParseIncidentFile(infos[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if inc.JournalOffset != infos[0].JournalOffset {
		t.Fatalf("parsed offset %d != recorded %d", inc.JournalOffset, infos[0].JournalOffset)
	}
	if max := recs[len(recs)-1].Seq; inc.JournalOffset > max {
		t.Fatalf("offset %d exceeds persisted Seq %d", inc.JournalOffset, max)
	}
	// The timeout event that triggered the dump is inside the offset (the
	// journal sink runs before the incident writer).
	found := false
	for _, r := range recs {
		if r.Kind == "timeout" && r.Seq <= inc.JournalOffset {
			found = true
		}
	}
	if !found {
		t.Error("triggering timeout event not covered by the incident's journal offset")
	}
}

// TestShellJournalAbsent pins the .journal error path without -journal.
func TestShellJournalAbsent(t *testing.T) {
	s, buf := newTestShell(t, false)
	runScript(t, s, `.journal`, `.quit`)
	if !strings.Contains(buf.String(), "no journal attached") {
		t.Errorf("missing no-journal message:\n%s", buf.String())
	}
}

// A failed -obs bind must come back from run as an error with the journal
// closed: the old log.Fatal skipped the deferred Close and left a
// header-less segment that reads back as a torn journal.
func TestStartupFailureClosesJournal(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-journal", dir, "-incidents", t.TempDir()}
	var out bytes.Buffer
	session := "SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR UPDATE\n.commit\n.quit\n"
	if err := run(args, strings.NewReader(session), &out); err != nil {
		t.Fatal(err)
	}
	before, _, err := journal.ReadAll(dir)
	if err != nil || len(before) == 0 {
		t.Fatalf("the first session journaled %d records, %v:\n%s", len(before), err, out.String())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := run(append(args, "-obs", ln.Addr().String()), strings.NewReader(""), &out); err == nil {
		t.Fatal("run bound an occupied port")
	}
	after, torn, err := journal.ReadAll(dir)
	if err != nil || torn {
		t.Errorf("journal after the failed start: torn=%v err=%v", torn, err)
	}
	if len(after) != len(before) {
		t.Errorf("read back %d records, %d were written before the failure", len(after), len(before))
	}
}
