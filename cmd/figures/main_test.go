package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"colock/internal/experiments"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestFigurePrinters(t *testing.T) {
	cases := []struct {
		fn   func()
		want []string
	}{
		{figure1, []string{`Relation "cells"`, "ref - - -> effectors", `Relation "effectors"`}},
		{figure2, []string{"System R", "XSQL", "Complex Objects"}},
		{figure3, []string{"Q1:", "Q2:", "Q3:", "FOR UPDATE", "objectBound=true"}},
		{figure4, []string{"HeLU", "HoLU", "BLU", "validate against this general graph"}},
		{figure5, []string{`HoLU (Relation "cells")`, `BLU ("ref")  - - -> HeLU (C.O. "effectors")`, `BLU ("tool")`}},
		{figure6, []string{"Outer unit", "Inner unit \"effectors/e2\"", "superunit of effectors/e1"}},
		{figure7, []string{"Q2: IX", "Q3: IX", "Q2: X", "Q3: X", "Q2: S    Q3: S",
			"Lock acquisition trace of Q2", "grant    IX   db1", "grant    X    db1/seg1/cells/c1/robots/r1"}},
	}
	for i, c := range cases {
		out := capture(t, c.fn)
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("figure %d output misses %q:\n%s", i+1, want, out)
			}
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	if len(experiments.All) != 13 {
		t.Fatalf("table has %d entries, want E1..E13", len(experiments.All))
	}
	for i, e := range experiments.All {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want || e.Run == nil {
			t.Errorf("entry %d is %q (runner set: %v), want %s in presentation order", i, e.ID, e.Run != nil, want)
		}
	}
}

func TestFastRunnersProduceTables(t *testing.T) {
	for _, e := range experiments.All[10:12] { // E11, E12
		tab := e.Run(true)
		if tab == nil || len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", e.ID)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments.All) {
		t.Fatalf("all: %d experiments, err %v", len(all), err)
	}
	two, err := selectExperiments("e13, E3")
	if err != nil || len(two) != 2 || two[0].ID != "E13" || two[1].ID != "E3" {
		t.Fatalf("e13, E3: %v, err %v", two, err)
	}
	for _, bad := range []string{"E14", "E3,", "figures"} {
		if _, err := selectExperiments(bad); err == nil {
			t.Errorf("%q: no error", bad)
		}
	}
}
