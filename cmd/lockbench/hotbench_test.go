package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A quick hotbench run must produce a well-formed report whose fast side
// demonstrably exercised the held-lock fast path and the batched manager
// path.
func TestHotBenchQuick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep, err := writeHotBench(path, []int{2}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "hotbench" || rep.PathsPerTxn != hotPathsPerTxn {
		t.Errorf("report header = %q paths/txn %d", rep.Benchmark, rep.PathsPerTxn)
	}
	if len(rep.Results) != 1 || rep.Results[0].Goroutines != 2 {
		t.Fatalf("result rows = %+v, want one row for 2 goroutines", rep.Results)
	}
	row := rep.Results[0]
	if row.BaselineOpsPerSec <= 0 || row.FastOpsPerSec <= 0 || row.Speedup <= 0 {
		t.Errorf("degenerate row: %+v", row)
	}
	if rep.FastPathHits == 0 {
		t.Error("fast side recorded no fast-path hits")
	}
	if rep.BatchCalls == 0 {
		t.Error("fast side recorded no batched manager rounds")
	}
	if rep.BaselineAllocsPerOp <= 0 {
		t.Errorf("baseline allocs/op = %v, want > 0", rep.BaselineAllocsPerOp)
	}
	if rep.FastAllocsPerOp >= rep.BaselineAllocsPerOp {
		t.Errorf("fast path allocates as much as the baseline: fast %.2f vs baseline %.2f",
			rep.FastAllocsPerOp, rep.BaselineAllocsPerOp)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed hotBenchReport
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("report file not JSON: %v", err)
	}
	if parsed.Benchmark != "hotbench" {
		t.Errorf("file benchmark = %q", parsed.Benchmark)
	}
}

var externalHotBench = flag.String("hotbenchfile", "",
	"path to a hotbench JSON report to validate (used by `make hotbench-smoke`)")

// TestExternalHotBenchFile validates a BENCH_PR4.json produced outside the
// test process — the `make hotbench-smoke` gate runs `lockbench -hotbench
// -quick` into a temp file and hands it in here. The smoke bar is ≥1.0x on
// every row (the committed full run documents the ≥2x result; a loaded CI
// machine still must never measure the fast path as a slowdown). Skipped
// when no -hotbenchfile is given.
func TestExternalHotBenchFile(t *testing.T) {
	if *externalHotBench == "" {
		t.Skip("no -hotbenchfile given")
	}
	data, err := os.ReadFile(*externalHotBench)
	if err != nil {
		t.Fatal(err)
	}
	var rep hotBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Benchmark != "hotbench" || len(rep.Results) == 0 {
		t.Fatalf("not a hotbench report: %+v", rep)
	}
	for _, r := range rep.Results {
		if r.Speedup < 1.0 {
			t.Errorf("%d goroutines: speedup %.2fx < 1.0x — fast path is a slowdown", r.Goroutines, r.Speedup)
		}
	}
	if rep.FastPathHits == 0 || rep.BatchCalls == 0 {
		t.Errorf("fast path not live: hits=%d batches=%d", rep.FastPathHits, rep.BatchCalls)
	}
}
