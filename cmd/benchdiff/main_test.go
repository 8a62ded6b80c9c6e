package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed BENCH_PR*.json reports at the repo root must all summarize:
// every file yields a speedup headline, the grant-path report among them.
func TestTabulateCommittedReports(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "BENCH_PR*.json"))
	if err != nil || len(files) == 0 {
		t.Skipf("no committed reports visible from the test dir: %v", err)
	}
	tab, err := tabulate(root)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	if len(tab.Rows) != len(files) {
		t.Errorf("tabulated %d rows for %d report files:\n%s", len(tab.Rows), len(files), out)
	}
	if !strings.Contains(out, "BENCH_PR9.json") || !strings.Contains(out, "grantbench") {
		t.Errorf("trajectory table is missing the grant-path report:\n%s", out)
	}
}

// A report without a results array is rejected rather than silently
// summarized as empty.
func TestSummarizeRejectsUnknownShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_PRX.json")
	if err := os.WriteFile(path, []byte(`{"benchmark":"mystery"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := summarize(path); err == nil {
		t.Error("summarize accepted a report with no recognizable rows")
	}
}
