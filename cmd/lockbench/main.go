// Command lockbench runs the quantitative experiments E1-E13 that turn the
// paper's qualitative evaluation (§4.6) into measurements (see DESIGN.md §5
// for the claim → experiment index):
//
//	lockbench              # run the full suite (EXPERIMENTS.md scale)
//	lockbench -quick       # small-scale smoke run
//	lockbench -e E3,E5     # run selected experiments (E1..E13)
//	lockbench -shardbench  # before/after sharded-table benchmark → BENCH_PR1.json
//	lockbench -stormbench  # contention-survival goodput benchmark → BENCH_PR6.json
//	lockbench -grantbench  # constant-time grant-path benchmark → BENCH_PR9.json
//	lockbench -netbench    # network lock-service loopback benchmark → BENCH_PR10.json
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"colock/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lockbench: ")
	quick := flag.Bool("quick", false, "run a small-scale suite")
	sel := flag.String("e", "", "comma-separated experiment ids (E1..E13); empty = all")
	shardbench := flag.Bool("shardbench", false, "run the sharded-lock-table before/after benchmark and write -shardout")
	shardout := flag.String("shardout", "BENCH_PR1.json", "output path for the -shardbench JSON report")
	stormbench := flag.Bool("stormbench", false, "run the contention-survival goodput benchmark and write -stormout")
	stormout := flag.String("stormout", "BENCH_PR6.json", "output path for the -stormbench JSON report")
	grantbench := flag.Bool("grantbench", false, "run the constant-time grant-path benchmark and write -grantout")
	grantout := flag.String("grantout", "BENCH_PR9.json", "output path for the -grantbench JSON report")
	netbench := flag.Bool("netbench", false, "run the network lock-service loopback benchmark and write -netout")
	netout := flag.String("netout", "BENCH_PR10.json", "output path for the -netbench JSON report")
	flag.Parse()

	if *netbench {
		dur := 2 * time.Second
		conns := []int{1, 8, 32}
		if *quick {
			dur = 400 * time.Millisecond
			conns = []int{1, 4}
		}
		rep, err := writeNetBench(*netout, conns, dur, *quick)
		if err != nil {
			log.Fatalf("netbench: %v", err)
		}
		printNetBench(rep)
		fmt.Printf("report written to %s\n", *netout)
		return
	}

	if *grantbench {
		dur := 2 * time.Second
		workers := []int{1, 4, 16}
		allocIters := 20000
		if *quick {
			dur = 300 * time.Millisecond
			workers = []int{1, 4}
			allocIters = 2000
		}
		rep, err := writeGrantBench(*grantout, workers, dur, allocIters)
		if err != nil {
			log.Fatalf("grantbench: %v", err)
		}
		printGrantBench(rep)
		fmt.Printf("report written to %s\n", *grantout)
		return
	}

	if *stormbench {
		workers := []int{8, 32}
		dur := 2 * time.Second
		chaosWorkers, chaosTxns := 8, 25
		if *quick {
			workers = []int{4}
			dur = 300 * time.Millisecond
			chaosWorkers, chaosTxns = 4, 10
		}
		rep, err := writeStormBench(*stormout, workers, dur, chaosWorkers, chaosTxns)
		if err != nil {
			log.Fatalf("stormbench: %v", err)
		}
		printStormBench(rep)
		fmt.Printf("report written to %s\n", *stormout)
		return
	}

	if *shardbench {
		dur := 2 * time.Second
		if *quick {
			dur = 300 * time.Millisecond
		}
		rep, err := writeShardBench(*shardout, []int{1, 4, 16}, dur)
		if err != nil {
			log.Fatalf("shardbench: %v", err)
		}
		fmt.Printf("shardbench (GOMAXPROCS=%d, %d shards, %d locks/txn):\n",
			rep.GOMAXPROCS, rep.Shards, rep.LocksPerTxn)
		for _, r := range rep.Results {
			fmt.Printf("  %2d goroutines: before %12.0f ops/s   after %12.0f ops/s   speedup %.2fx\n",
				r.Goroutines, r.BeforeOpsPerSec, r.AfterOpsPerSec, r.Speedup)
		}
		fmt.Printf("report written to %s\n", *shardout)
		return
	}

	run := experiments.All
	if *sel != "" {
		run = nil
		for _, id := range strings.Split(*sel, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == id })
			if i < 0 {
				log.Fatalf("unknown experiment %q (have E1..E13)", id)
			}
			run = append(run, experiments.All[i])
		}
	}
	for _, e := range run {
		start := time.Now()
		fmt.Println(e.Run(*quick).String())
		fmt.Printf("(%s finished in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
