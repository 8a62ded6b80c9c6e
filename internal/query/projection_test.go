package query

import (
	"testing"

	"colock/internal/core"
	"colock/internal/schema"
	"colock/internal/store"
)

func TestParseSelectProjection(t *testing.T) {
	q, err := Parse(`SELECT r.trajectory FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r1' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != "r" || len(q.SelectAttrs) != 1 || q.SelectAttrs[0] != "trajectory" {
		t.Errorf("projection = %q.%v", q.Select, q.SelectAttrs)
	}
	// Round trip keeps the projection.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatal(err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
}

func TestAnalyzeProjectionValidation(t *testing.T) {
	cat := schema.PaperSchema()
	for _, src := range []string{
		`SELECT r.nope FROM c IN cells, r IN c.robots`, // unknown attr
		`SELECT c.robots.r1 FROM c IN cells`,           // not a tuple chain
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Analyze(cat, q); err == nil {
			t.Errorf("analyzed %q", src)
		}
	}
	// Projecting a collection-valued attribute is allowed (it is a value).
	q, _ := Parse(`SELECT r.effectors FROM c IN cells, r IN c.robots`)
	if _, err := Analyze(cat, q); err != nil {
		t.Errorf("collection projection rejected: %v", err)
	}
}

func TestExecProjection(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT r.trajectory FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Path.String() != "cells/c1/robots/r1/trajectory" || res[0].Value != store.Str("tr1") {
		t.Errorf("res[0] = %v", res[0])
	}
	if res[1].Value != store.Str("tr2") {
		t.Errorf("res[1] = %v", res[1])
	}
}

func TestExecProjectionOfCollection(t *testing.T) {
	f := newFixture(t, core.Options{})
	tx := f.mgr.Begin()
	defer tx.Abort()
	res, _, err := f.exec.Run(tx, `SELECT r.effectors FROM c IN cells, r IN c.robots WHERE r.robot_id = 'r2' FOR READ`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	set := res[0].Value.(*store.Set)
	if set.Len() != 2 || set.Get("e2") == nil {
		t.Errorf("value = %v", res[0].Value)
	}
}
