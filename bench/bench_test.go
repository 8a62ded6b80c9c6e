package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/workload"
)

// The histogram's promise: any quantile within 1 % of the exact one.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	exact := make([]float64, 200000)
	for i := range exact {
		// Log-uniform over 100 ns … 10 ms, the range transactions live in.
		v := int64(100 * math.Pow(1e5, rng.Float64()))
		exact[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q%.3f: got %.1f, exact %.1f, relative error %.4f > 0.01", q, got, want, rel)
		}
	}
	var small hist
	for v := int64(0); v < subCount; v++ {
		small.record(v)
	}
	if lo, w := histBounds(histIndex(100)); lo != 100 || w != 1 {
		t.Errorf("values below %d must be counted exactly, bucket of 100 is [%d,+%d)", subCount, lo, w)
	}
	if got := histIndex(1 << 50); got != histBuckets-1 {
		t.Errorf("oversized value lands in bucket %d, want the last, %d", got, histBuckets-1)
	}
}

type noopSession struct{}

func (noopSession) begin() (txnOps, error) { return noopTxn{}, nil }

type noopTxn struct{}

func (noopTxn) lock(store.Path, lock.Mode) error { return nil }
func (noopTxn) commit() error                    { return nil }
func (noopTxn) abort()                           {}

// The driver loop must stay out of allocs_per_txn: against an engine that
// does nothing it allocates nothing, witness and histogram included.
func TestDriverLoopAllocatesNothing(t *testing.T) {
	st := workload.Generate(dbConfig(1, false))
	ring, err := genScripts(st, 1, 0, 2, true, 1024)
	if err != nil {
		t.Fatal(err)
	}
	c := &clientState{sess: noopSession{}, ring: ring, witness: &witness{}}
	allocs := testing.AllocsPerRun(5, func() {
		c.counts = counts{}
		c.run(2000, time.Time{})
	})
	if allocs != 0 {
		t.Errorf("driver loop allocates %.1f times per 2000 transactions, want 0", allocs)
	}
	if c.commits != 2000 || c.failed != 0 || c.begins != 2000 || c.violations != 0 {
		t.Errorf("commits=%d failed=%d begins=%d violations=%d, want 2000 0 2000 0", c.commits, c.failed, c.begins, c.violations)
	}
}

// dumpScripts renders a ring canonically; the determinism test compares
// two dumps of one seed byte for byte.
func dumpScripts(ring []script) []byte {
	var b strings.Builder
	for _, s := range ring {
		fmt.Fprintf(&b, "%d lib=%v eff=%d", s.id, s.librarian, s.eff)
		for _, o := range s.ops {
			fmt.Fprintf(&b, " %v:%s%v", o.mode, o.path, o.effs)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// The same seed yields byte-identical scripts; another seed does not.
func TestScriptsDeterministic(t *testing.T) {
	gen := func(seed int64) []byte {
		st := workload.Generate(dbConfig(seed, false))
		var all []byte
		for c := 0; c < 2; c++ {
			ring, err := genScripts(st, seed, c, 2, true, 1024)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, dumpScripts(ring)...)
		}
		return all
	}
	a, b, other := gen(42), gen(42), gen(43)
	if !bytes.Equal(a, b) {
		t.Error("two generations from seed 42 differ")
	}
	if bytes.Equal(a, other) {
		t.Error("seeds 42 and 43 generate the same scripts")
	}
}

// Each client edits only cells of its own partition, and a cell edit has
// the fixed shape that pins the per-transaction manager counts.
func TestScriptShape(t *testing.T) {
	st := workload.Generate(dbConfig(5, false))
	for c := 0; c < 2; c++ {
		ring, err := genScripts(st, 5, c, 2, true, ringSize)
		if err != nil {
			t.Fatal(err)
		}
		librarians := 0
		for _, s := range ring {
			if s.librarian {
				librarians++
				if len(s.ops) != 1 || s.ops[0].mode != lock.X || s.ops[0].path[0] != "effectors" {
					t.Fatalf("librarian script %d: %+v", s.id, s.ops)
				}
				continue
			}
			if len(s.ops) != 10 {
				t.Fatalf("script %d has %d ops, want 10", s.id, len(s.ops))
			}
			if cell, err := strconv.Atoi(s.ops[0].path[1][1:]); err != nil || cell%2 != c {
				t.Fatalf("client %d script %d edits cell %q outside its partition", c, s.id, s.ops[0].path[1])
			}
			seen := map[string]bool{}
			for k, o := range s.ops {
				wantMode := lock.S
				if k == 5 || k == 9 {
					wantMode = lock.X
				}
				wantColl := "c_objects"
				if k >= 6 {
					wantColl = "robots"
				}
				if o.mode != wantMode || o.path[2] != wantColl || seen[o.path.String()] {
					t.Fatalf("script %d op %d: %v %v", s.id, k, o.mode, o.path)
				}
				seen[o.path.String()] = true
				if k >= 6 && len(o.effs) != dbEffectorsPerRobot {
					t.Fatalf("script %d op %d: %d effectors, want %d", s.id, k, len(o.effs), dbEffectorsPerRobot)
				}
			}
		}
		if share := float64(librarians) / float64(len(ring)); share < 0.03 || share > 0.07 {
			t.Errorf("client %d: librarian share %.3f, want about 0.05", c, share)
		}
	}
}

// The exclusion witness must notice a librarian's X hold that overlaps an
// editor's S hold, and stay quiet otherwise.
func TestWitnessDetectsOverlap(t *testing.T) {
	w := &witness{}
	editor := &script{ops: []op{{mode: lock.S, effs: []uint16{3, 9}}}}
	c := &clientState{witness: w}

	c.check(editor, []uint64{0, 0})
	if c.violations != 0 {
		t.Fatalf("quiet case reported %d violations", c.violations)
	}
	w.ver[9].Add(2) // a librarian held and released X in between
	c.check(editor, []uint64{0, 0})
	if c.violations != 1 {
		t.Fatalf("changed version: %d violations, want 1", c.violations)
	}
	w.ver[3].Add(1) // a librarian holds X right now
	c.violations = 0
	c.check(editor, []uint64{1, 2})
	if c.violations != 1 {
		t.Fatalf("odd version: %d violations, want 1", c.violations)
	}
	// A second librarian finding the version odd is a violation too.
	c.violations = 0
	c.check(&script{librarian: true, eff: 3}, nil)
	if c.violations != 2 {
		t.Fatalf("librarian over a held effector: %d violations, want 2", c.violations)
	}
}

// BENCHMARK.json and the tables in main.go must name the same workloads
// and metrics, with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the table", i, w.Name, workloads[i].name)
		}
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the table", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
}

// smoke shrinks everything but the database so a run takes a fraction of a
// second; the checks are the full ones.
func smoke(spec workloadSpec, trace bool, dir string) config {
	spec.warmup = 400
	return config{spec: spec, seed: 11, seconds: 0.2, trace: trace, workdir: dir,
		start: time.Now(), rounds: 1, ring: 512, tracedTxns: 200}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			res, err := run(smoke(spec, false, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			if got := res.Metrics["attempts_per_commit"].Value; got != 1 {
				t.Errorf("attempts_per_commit = %v, want exactly 1", got)
			}
		})
	}
}

// The traced run prints every per-layer metric on every workload, writes
// the span file, and the layers a workload bypasses read zero.
func TestSmokeTraced(t *testing.T) {
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			cfg := smoke(spec, true, t.TempDir())
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want exactly the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			v := func(name string) float64 {
				m, ok := res.Metrics[name]
				if !ok {
					t.Fatalf("metric %s missing", name)
				}
				return m.Value
			}
			for _, name := range []string{"core.namer_us_per_txn", "lock.us_per_txn", "lock.grants_per_txn", "host.spin_ns", "trace.overhead_ratio"} {
				if !(v(name) > 0) {
					t.Errorf("%s = %v, want > 0", name, v(name))
				}
			}
			if got := v("sinks.total_us_per_txn") > 0; got != spec.sinks {
				t.Errorf("sinks.total_us_per_txn > 0 is %v, want %v", got, spec.sinks)
			}
			if got := v("net.socket_us_per_txn") > 0; got != spec.net {
				t.Errorf("net.socket_us_per_txn > 0 is %v, want %v", got, spec.net)
			}
			if got := v("core.downward_locks_per_txn") > 0; got != spec.shared {
				t.Errorf("core.downward_locks_per_txn > 0 is %v, want %v", got, spec.shared)
			}
			if spec.net && v("net.round_trips_per_txn") != 12 {
				t.Errorf("net.round_trips_per_txn = %v, want 12", v("net.round_trips_per_txn"))
			}
			data, err := os.ReadFile(spanFile(cfg))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			var first struct {
				ID, Parent int64
				Name       string
				Script     uint32
				Start      int64 `json:"start_ns"`
				End        int64 `json:"end_ns"`
			}
			if err := json.Unmarshal(lines[0], &first); err != nil {
				t.Fatalf("span line %q: %v", lines[0], err)
			}
			if first.ID != 1 || first.Name != "txn" || first.End < first.Start {
				t.Errorf("first span %+v, want the first txn root", first)
			}
			if len(lines) < cfg.tracedTxns*spansPerTxn/2 {
				t.Errorf("%d spans written, want at least %d", len(lines), cfg.tracedTxns*spansPerTxn/2)
			}
		})
	}
}
