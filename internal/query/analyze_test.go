package query

import (
	"testing"

	"colock/internal/core"
	"colock/internal/schema"
)

func analyzeSrc(t *testing.T, src string) *Analysis {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(schema.PaperSchema(), q)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalyzeQ1(t *testing.T) {
	an := analyzeSrc(t, q1Src)
	if an.Spec.Relation != "cells" || !an.Spec.ObjectBound || an.ObjectKey != "c1" {
		t.Errorf("spec = %+v key=%q", an.Spec, an.ObjectKey)
	}
	if len(an.Spec.Hops) != 1 || an.Spec.Hops[0].Bound || an.Spec.Hops[0].Selectivity != 1 {
		t.Errorf("hops = %+v", an.Spec.Hops)
	}
	if an.Spec.Access != core.AccessRead {
		t.Error("access kind")
	}
	if an.SelectBinding != 1 {
		t.Errorf("select binding = %d", an.SelectBinding)
	}
	if len(an.Residual) != 0 {
		t.Errorf("residual = %v", an.Residual)
	}
}

func TestAnalyzeQ2(t *testing.T) {
	an := analyzeSrc(t, q2Src)
	if !an.Spec.ObjectBound || an.ObjectKey != "c1" {
		t.Error("object binding")
	}
	if len(an.Spec.Hops) != 1 || !an.Spec.Hops[0].Bound || an.HopKeys[0] != "r1" {
		t.Errorf("hop binding = %+v keys=%v", an.Spec.Hops, an.HopKeys)
	}
	if an.Spec.Access != core.AccessUpdate {
		t.Error("access kind")
	}
}

func TestAnalyzeResidualPredicates(t *testing.T) {
	an := analyzeSrc(t, `SELECT r FROM c IN cells, r IN c.robots WHERE r.trajectory = 'tr1' FOR READ`)
	if an.Spec.Hops[0].Bound {
		t.Error("non-key predicate bound the hop")
	}
	if got := an.Spec.Hops[0].Selectivity; got != 0.1 {
		t.Errorf("selectivity = %v, want 0.1 (eq default)", got)
	}
	if len(an.Residual[1]) != 1 {
		t.Errorf("residual = %v", an.Residual)
	}

	an = analyzeSrc(t, `SELECT c FROM c IN cells WHERE c.cell_id > 'a' FOR READ`)
	if an.Spec.ObjectBound {
		t.Error("range predicate on key bound the object")
	}
	if got := an.Spec.ObjectSelectivity; got != 0.3 {
		t.Errorf("object selectivity = %v, want 0.3 (range default)", got)
	}
}

func TestAnalyzeSelectivityFloor(t *testing.T) {
	an := analyzeSrc(t, `SELECT c FROM c IN cells WHERE c.cell_id > 'a' AND c.cell_id > 'b' AND c.cell_id > 'c' AND c.cell_id > 'd' AND c.cell_id > 'e' FOR READ`)
	if got := an.Spec.ObjectSelectivity; got < 0.01 {
		t.Errorf("selectivity %v below floor", got)
	}
}

func TestAnalyzeIntKeyLiteral(t *testing.T) {
	// Integer literals work as element IDs (obj_id is an int).
	an := analyzeSrc(t, `SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' AND o.obj_id = 1 FOR READ`)
	if !an.Spec.Hops[0].Bound || an.HopKeys[0] != "1" {
		t.Errorf("int key binding failed: %+v %v", an.Spec.Hops, an.HopKeys)
	}
}

func TestAnalyzeNoFollow(t *testing.T) {
	an := analyzeSrc(t, `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE NOFOLLOW`)
	if !an.Spec.NoFollowRefs {
		t.Error("NOFOLLOW not propagated")
	}
}

func TestAnalyzeTwoHopChain(t *testing.T) {
	an := analyzeSrc(t, `SELECT e FROM c IN cells, r IN c.robots, e IN r.effectors WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR READ`)
	if len(an.Spec.Hops) != 2 {
		t.Fatalf("hops = %+v", an.Spec.Hops)
	}
	if !an.Spec.Hops[0].Bound || an.Spec.Hops[1].Bound {
		t.Errorf("hop binding = %+v", an.Spec.Hops)
	}
	if an.SelectBinding != 2 {
		t.Errorf("select binding = %d", an.SelectBinding)
	}
	// The effectors elements are refs (not tuples): no element key attr.
	if an.ElemTypes[2].Kind != schema.KindRef {
		t.Errorf("elem type = %v", an.ElemTypes[2])
	}
}

func TestAnalyzeContradictoryKeys(t *testing.T) {
	q, err := Parse(`SELECT c FROM c IN cells WHERE c.cell_id = 'c1' AND c.cell_id = 'c2'`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(schema.PaperSchema(), q); err == nil {
		t.Error("contradictory keys accepted")
	}
	// Identical duplicates are fine.
	q2, _ := Parse(`SELECT c FROM c IN cells WHERE c.cell_id = 'c1' AND c.cell_id = 'c1'`)
	if _, err := Analyze(schema.PaperSchema(), q2); err != nil {
		t.Errorf("identical duplicate keys rejected: %v", err)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	bad := []string{
		`SELECT c FROM c IN nowhere`,                             // unknown relation
		`SELECT r FROM c IN cells, r IN c.cell_id`,               // not a collection
		`SELECT r FROM c IN cells, r IN c.zz`,                    // unknown attr
		`SELECT c FROM c IN cells WHERE c.zz = 1`,                // unknown pred attr
		`SELECT c FROM c IN cells WHERE c.c_objects = 1`,         // non-atomic pred
		`SELECT e FROM c IN cells, r IN c.robots, e IN c.robots`, // non-linear chain
		`SELECT r FROM c IN cells, r IN c.robots.zz`,             // broken chain
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Analyze(schema.PaperSchema(), q); err == nil {
			t.Errorf("analyzed %q", src)
		}
	}
}

func TestBindingLevels(t *testing.T) {
	if bindingLevel(0) != 1 || bindingLevel(1) != 3 || bindingLevel(2) != 5 {
		t.Error("bindingLevel")
	}
	if collectionLevel(0) != 2 || collectionLevel(1) != 4 {
		t.Error("collectionLevel")
	}
}
