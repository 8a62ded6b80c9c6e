package main

import (
	"fmt"
	"testing"

	"colock/internal/experiments"
)

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
