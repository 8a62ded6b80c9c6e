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
	"strings"
	"time"

	"colock/internal/experiments"
	"colock/internal/metrics"
)

// experimentOrder lists the experiments in presentation order.
var experimentOrder = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}

// experimentRunners maps experiment ids to their runners (quick selects the
// small-scale parameterization).
func experimentRunners() map[string]func(quick bool) *metrics.Table {
	return map[string]func(quick bool) *metrics.Table{
		"E1": func(q bool) *metrics.Table {
			if q {
				return experiments.E1Fig7Concurrency(20)
			}
			return experiments.E1Fig7Concurrency(200)
		},
		"E2": func(q bool) *metrics.Table {
			if q {
				return experiments.E2Granularity(8, 50, 200*time.Microsecond)
			}
			return experiments.E2Granularity(16, 200, 500*time.Microsecond)
		},
		"E3": func(q bool) *metrics.Table {
			if q {
				return experiments.E3SharedXLock([]int{2, 8, 32})
			}
			return experiments.E3SharedXLock([]int{2, 8, 32, 128})
		},
		"E4": func(q bool) *metrics.Table {
			if q {
				return experiments.E4FromTheSide(10)
			}
			return experiments.E4FromTheSide(50)
		},
		"E5": func(q bool) *metrics.Table {
			if q {
				return experiments.E5Authorization([]int{4, 16}, 200*time.Microsecond)
			}
			return experiments.E5Authorization([]int{4, 16, 64}, 500*time.Microsecond)
		},
		"E6": func(q bool) *metrics.Table {
			if q {
				return experiments.E6Escalation(200, []float64{0.05, 0.25, 0.5, 1.0})
			}
			return experiments.E6Escalation(500, []float64{0.02, 0.1, 0.25, 0.5, 0.75, 1.0})
		},
		"E7": func(q bool) *metrics.Table {
			if q {
				return experiments.E7LongTransactions(8, 30*time.Millisecond)
			}
			return experiments.E7LongTransactions(16, 100*time.Millisecond)
		},
		"E8": func(q bool) *metrics.Table {
			if q {
				return experiments.E8DisjointOverhead(16, 4)
			}
			return experiments.E8DisjointOverhead(64, 6)
		},
		"E9": func(q bool) *metrics.Table {
			if q {
				return experiments.E9BenefitSweep([]int{1, 2, 3, 4}, 30*time.Millisecond)
			}
			return experiments.E9BenefitSweep([]int{1, 2, 3, 4, 5}, 60*time.Millisecond)
		},
		"E10": func(q bool) *metrics.Table {
			if q {
				return experiments.E10DeEscalation(8, 30*time.Millisecond)
			}
			return experiments.E10DeEscalation(16, 100*time.Millisecond)
		},
		"E11": func(q bool) *metrics.Table {
			if q {
				return experiments.E11BLUCoalescing(16)
			}
			return experiments.E11BLUCoalescing(64)
		},
		"E12": func(q bool) *metrics.Table {
			if q {
				return experiments.E12RecursiveClosure([]int{2, 8, 32})
			}
			return experiments.E12RecursiveClosure([]int{2, 8, 32, 128})
		},
		"E13": func(q bool) *metrics.Table {
			if q {
				return experiments.E13DeadlockPolicy(4, 15)
			}
			return experiments.E13DeadlockPolicy(8, 40)
		},
	}
}

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

	runners := experimentRunners()
	order := experimentOrder

	var ids []string
	if *sel == "" {
		ids = order
	} else {
		for _, id := range strings.Split(*sel, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := runners[id]; !ok {
				log.Fatalf("unknown experiment %q (have E1..E13)", id)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tab := runners[id](*quick)
		fmt.Println(tab.String())
		fmt.Printf("(%s finished in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
