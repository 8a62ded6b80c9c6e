GO ?= go

.PHONY: ci fmt vet build test race race-matrix fuzz-smoke bench bench-smoke scale journal-smoke bench-check doc-lint drift-check obs-demo figures clean

# ci is the gate every change must pass (11 gates): formatting, vet, the godoc
# lint (which also greps for deprecated wrappers) and the docs-drift lint,
# build, the full test suite under the race detector (the lock manager and
# protocol are concurrent; -race is not optional here), the
# scheduling-sensitive packages again at 1, 2 and 4 cores, a short run of
# every fuzz target, one iteration of every in-tree Go benchmark, the
# journal-forensics smoke gate, and the check that the
# frozen benchmark module still builds and runs against this tree
# (performance is measured by bench/, whose pinned per-transaction counts
# bench-check asserts; the forced-timeout incident dump and the .health dump
# are checked in-process by cmd/colockshell's TestShellForceTimeout and
# TestShellHealthCommands).
ci: fmt vet doc-lint drift-check build race race-matrix fuzz-smoke bench-smoke journal-smoke bench-check

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
# concurrent writers, the post-grant re-check depends on who parks when, and
# a node's scan memo is filled by whichever goroutine first scans it after a
# write; in sim, media recovery restores the store (RestoreData) under the
# workstations' check-out locks and a crash restarts the protocol over the
# same store; in lock and txn, a transaction's lock list is written by
# whichever goroutine grants its waiter; in engine, every sink of the
# daemons' assembly runs on whichever goroutine performed the operation; in
# obs, the collector's kind memo is filled by whichever goroutine sees a
# resource id first, and the journal's ring is filled by them all.
race-matrix:
	$(GO) test -race -cpu 1,2,4 -count=2 ./client ./internal/server ./internal/wire ./internal/core ./internal/store ./internal/sim ./internal/lock ./internal/txn ./internal/engine ./internal/obs ./internal/journal

# fuzz-smoke runs each fuzz target for 5s: the journal record
# codec, the wire decoders, and the waits-for cycle walk against brute force.
# A failing input is written to the package's testdata/fuzz/ and runs as a
# seed from then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime 5s ./internal/journal
	@for f in FuzzFrameReader FuzzDecode FuzzLockReqRoundTrip FuzzHandshake; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 5s ./internal/wire || exit 1; done
	$(GO) test -run '^$$' -fuzz '^FuzzCycleFinder$$' -fuzztime 5s ./internal/lock

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every in-tree Go benchmark once, so a benchmark that fails
# (b.Fatal) or panics fails here rather than when someone next measures with
# it. It times nothing: the iteration count is 1.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# scale runs BenchmarkCellEditBareParallel (disjoint cells, every goroutine on
# one engine) at 1 and 2 CPUs, five times each, and prints each side's median
# ns/op and the 2-CPU/1-CPU ratio: how much of a second core the lock path
# turns into transactions. A yardstick, not a ci gate: the ratio depends on
# the host. See scripts/scale.sh.
scale:
	@GO=$(GO) sh scripts/scale.sh

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

# bench-check covers what `go build ./... && go test ./...` at the root cannot
# see: bench/ is a module of its own (BENCHMARK.json's benchmark, frozen
# between benchmark PRs), so API drift against it shows only here. It vets and
# tests the module, then runs for two seconds each the workload that wires
# every sink, the one that crosses client, wire and server, and the one whose
# transactions wait (blocked requests inside chain batches, under the
# exclusion witness); each run's last line must report every output check as
# passed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	@for w in observed_disjoint net_disjoint embed_shared; do \
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
