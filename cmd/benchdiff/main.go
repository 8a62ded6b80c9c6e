// Command benchdiff tabulates the committed BENCH_PR*.json reports so the
// performance trajectory of the PR sequence is visible in one table:
//
//	benchdiff            # scan the current directory
//	benchdiff -dir path  # scan another checkout
//
// Every lockbench report shares a loose schema: a "benchmark" name, a
// "description", and a "results" array whose rows carry a speedup/ratio
// column. benchdiff extracts the headline numbers without depending on the
// exact per-PR report structs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"colock/internal/metrics"
)

// headline is one summarized report file.
type headline struct {
	File      string
	Benchmark string
	Min, Max  float64
	Rows      int
}

// ratioKeys are the column names recognized as a speedup-style metric, in
// lookup order.
var ratioKeys = []string{"speedup", "kit_over_bare_ratio", "local_over_net_ratio"}

// summarize parses one report file and extracts its headline numbers.
func summarize(path string) (headline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return headline{}, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return headline{}, fmt.Errorf("%s: %w", path, err)
	}
	h := headline{File: filepath.Base(path)}
	h.Benchmark, _ = doc["benchmark"].(string)
	rows, _ := doc["results"].([]any)
	for _, raw := range rows {
		row, _ := raw.(map[string]any)
		for _, col := range ratioKeys {
			v, isNum := row[col].(float64)
			if !isNum {
				continue
			}
			if h.Rows == 0 || v < h.Min {
				h.Min = v
			}
			if h.Rows == 0 || v > h.Max {
				h.Max = v
			}
			h.Rows++
			break
		}
	}
	if h.Rows == 0 {
		return headline{}, fmt.Errorf("%s: no speedup rows found", path)
	}
	return h, nil
}

// tabulate renders the summarized reports; files come in name order, which
// sorts the PR sequence chronologically (single-digit PR numbers).
func tabulate(dir string) (*metrics.Table, error) {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_PR*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no BENCH_PR*.json files in %s", dir)
	}
	sort.Strings(files)
	tab := metrics.NewTable("Benchmark trajectory across the PR sequence",
		"report", "benchmark", "rows", "headline")
	for _, f := range files {
		h, err := summarize(f)
		if err != nil {
			return nil, err
		}
		tab.Addf(h.File, h.Benchmark, h.Rows, fmt.Sprintf("speedup %.2fx..%.2fx", h.Min, h.Max))
	}
	return tab, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	dir := flag.String("dir", ".", "directory holding the BENCH_PR*.json reports")
	flag.Parse()
	tab, err := tabulate(*dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tab.String())
}
