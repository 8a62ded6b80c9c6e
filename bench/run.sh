#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload embed_disjoint --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temp
# journal, span files) goes to .bench_build/ at the repository root, which
# .gitignore names. Exits non-zero when the colock module is not around it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
		go build -o "$build/colock-bench" .
)
cd "$root"
exec "$build/colock-bench" -workdir "$build" "$@"
