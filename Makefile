GO ?= go

.PHONY: ci fmt vet build test race race-matrix bench shardbench stormbench stormbench-smoke journal-smoke grantbench grantbench-smoke netbench netbench-smoke bench-check benchdiff doc-lint drift-check obs-demo figures clean

# ci is the gate every change must pass: formatting, vet, the godoc lint
# (which also greps for deprecated wrappers) and the docs-drift lint, build, the
# full test suite under the race detector (the lock manager and protocol
# are concurrent; -race is not optional here), the scheduling-sensitive
# packages again at 1, 2 and 4 cores, the contention-survival, grant-path,
# and network smoke benchmarks, the journal-forensics smoke gate, and the
# check that the frozen benchmark module still builds and runs against this
# tree (12 gates; the fast path and the four sinks are measured by bench/,
# whose pinned per-transaction counts bench-check asserts; the forced-timeout
# incident dump and the .health dump are checked in-process by
# cmd/colockshell's TestShellForceTimeout and TestShellHealthCommands).
ci: fmt vet doc-lint drift-check build race race-matrix stormbench-smoke journal-smoke grantbench-smoke netbench-smoke bench-check

# fmt fails if any file needs gofmt, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-matrix repeats the scheduling-sensitive packages' tests at 1, 2 and 4
# cores. On the network path, who holds the read loop (server session) and
# the reader role (client) is decided by scheduling, so one core count does
# not cover the hand-offs; in core and store, the downward scan runs against
# concurrent writers and the post-grant re-check depends on who parks when;
# in lock and txn, a transaction's lock list is written by whichever goroutine
# grants its waiter; in engine, every sink of the daemons' assembly runs on
# whichever goroutine performed the operation.
race-matrix:
	$(GO) test -race -cpu 1,2,4 -count=2 ./client ./internal/server ./internal/wire ./internal/core ./internal/store ./internal/lock ./internal/txn ./internal/engine

bench:
	$(GO) test -bench=. -benchmem ./...

# shardbench regenerates BENCH_PR1.json (sharded lock table vs the
# single-mutex seed replica; see DESIGN.md §8).
shardbench:
	$(GO) run ./cmd/lockbench -shardbench -shardout BENCH_PR1.json

# stormbench regenerates BENCH_PR6.json (contention-survival goodput:
# RunWithRetry + backoff + admission vs bare spin-restart, plus the
# fixed-seed chaos convergence phase; see DESIGN.md §12).
stormbench:
	$(GO) run ./cmd/lockbench -stormbench -stormout BENCH_PR6.json

# stormbench-smoke runs a quick stormbench into a temp file and asserts, via
# the flag-gated validation test in cmd/lockbench, that the report parses,
# no row measured the survival kit as a slowdown (ratio ≥ 1.0x; the
# committed BENCH_PR6.json documents the full ≥1.5x run), and the fixed-seed
# chaos phase committed every transaction.
stormbench-smoke:
	@f=$$(mktemp) && \
	$(GO) run ./cmd/lockbench -stormbench -quick -stormout "$$f" >/dev/null && \
	$(GO) test ./cmd/lockbench -count=1 -run TestExternalStormBenchFile -stormbenchfile "$$f" && \
	echo "stormbench-smoke: $$f passes (kit no slower than bare, chaos converged)" && \
	rm -f "$$f"

# journal-smoke runs a scripted colockshell session with a durable journal
# attached, storms a hot key, and dumps the live /health verdict; then it
# replays the journal offline with colockreplay -json and asserts, via the
# flag-gated validation test in cmd/colockreplay, that forensics sees the
# storm: the trajectory-leaf hot key, at least one convoy on it, and an SLO
# replay verdict that matches what the live monitor reported.
journal-smoke:
	@dir=$$(mktemp -d) && hf=$$(mktemp) && f=$$(mktemp) && \
	printf "%s\n" ".storm 8 10" ".journal flush" ".journal" ".health dump $$hf" ".quit" \
		| $(GO) run ./cmd/colockshell -journal "$$dir" >/dev/null && \
	$(GO) run ./cmd/colockreplay -dir "$$dir" -json "$$f" >/dev/null && \
	$(GO) test ./cmd/colockreplay -count=1 -run TestExternalReplayFile \
		-replayfile "$$f" -livehealth "$$hf" && \
	echo "journal-smoke: replay of $$dir passes (hot key, convoy, SLO verdict matches live)" && \
	rm -rf "$$dir" "$$hf" "$$f"

# grantbench regenerates BENCH_PR9.json (constant-time grant path:
# granted-group summaries + pooled wait blocks + deferred deadlock
# detection vs the pre-change map-scan replica; see DESIGN.md §15).
grantbench:
	$(GO) run ./cmd/lockbench -grantbench -grantout BENCH_PR9.json

# grantbench-smoke runs a quick grantbench into a temp file and asserts, via
# the flag-gated validation test in cmd/lockbench, that the report parses, no
# hot-root row measured the summary path as a slowdown (≥1.0x; the committed
# BENCH_PR9.json documents the full ≥1.3x run), the blocked path stays at
# ≤1 alloc/op, and the deferred detector resolved a real AB-BA cycle.
grantbench-smoke:
	@f=$$(mktemp) && \
	$(GO) run ./cmd/lockbench -grantbench -quick -grantout "$$f" >/dev/null && \
	$(GO) test ./cmd/lockbench -count=1 -run TestExternalGrantBenchFile -grantbenchfile "$$f" && \
	echo "grantbench-smoke: $$f passes (summaries live, blocked path alloc-free, detector resolves)" && \
	rm -f "$$f"

# netbench regenerates BENCH_PR10.json (colockd wire-protocol loopback
# cost vs the identical in-process loop; see DESIGN.md §16).
netbench:
	$(GO) run ./cmd/lockbench -netbench -netout BENCH_PR10.json

# netbench-smoke runs a quick netbench into a temp file and asserts, via
# the flag-gated validation test in cmd/lockbench, that the report parses,
# both sides measured real throughput, and the wire costs more than
# in-process (ratio > 1.0x; the committed full BENCH_PR10.json additionally
# documents the ≥50k acquires/s bar at 32 connections, which the same test
# enforces on full reports).
netbench-smoke:
	@f=$$(mktemp) && \
	$(GO) run ./cmd/lockbench -netbench -quick -netout "$$f" >/dev/null && \
	$(GO) test ./cmd/lockbench -count=1 -run TestExternalNetBenchFile -netbenchfile "$$f" && \
	echo "netbench-smoke: $$f passes (wire round trips real, costed against in-process)" && \
	rm -f "$$f"

# bench-check covers what `go build ./... && go test ./...` at the root cannot
# see: bench/ is a module of its own (BENCHMARK.json's benchmark, frozen
# between benchmark PRs), so API drift against it shows only here. It vets and
# tests the module, then runs for two seconds each the workload that wires
# every sink and the one that crosses client, wire and server; each run's
# last line must report every output check as passed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	@for w in observed_disjoint net_disjoint; do \
	out=$$(bash bench/run.sh --workload $$w --seconds 2 --trace 0 | tail -1) && \
	case "$$out" in *'"correct":true'*) echo "bench-check: $$w runs, all output checks pass";; \
	*) echo "bench-check: last line of bench/run.sh --workload $$w lacks \"correct\":true: $$out"; exit 1;; esac; \
	done

# doc-lint asserts godoc hygiene: every package has a package doc comment,
# every exported symbol of the public API packages (client, internal/wire)
# is documented, and no Deprecated marker survives in internal/lock. See
# scripts/doclint.sh.
doc-lint:
	@sh scripts/doclint.sh

# drift-check asserts the docs have not drifted: every "DESIGN.md §N"
# reference resolves to a real heading, every intra-repo markdown link to a
# real file, every `make` target and BENCH_PR file they name exists, and
# every `pkg.Symbol` they quote is one go doc finds. See scripts/docdrift.sh.
drift-check:
	@sh scripts/docdrift.sh

# benchdiff tabulates every committed BENCH_PR*.json so the performance
# trajectory of the PR sequence is visible in one table.
benchdiff:
	$(GO) run ./cmd/benchdiff

# obs-demo runs a scripted colockshell session that takes locks and dumps
# the .metrics tables, the wait-queue view, and the waits-for DOT graph.
obs-demo:
	@printf "%s\n" \
		"SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE" \
		".metrics" ".queues all" ".dot" ".commit" ".quit" \
		| $(GO) run ./cmd/colockshell

figures:
	$(GO) run ./cmd/figures

clean:
	$(GO) clean ./...
