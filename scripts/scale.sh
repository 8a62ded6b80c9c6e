#!/bin/sh
# scale: the multi-core scaling yardstick (make scale; not a ci gate).
#
# Runs BenchmarkCellEditBareParallel — the cell-edit transaction from every
# goroutine of one sink-less engine, each goroutine on cells of its own, so
# no two transactions conflict — at 1 and 2 CPUs, five times each, and
# prints each side's median ns/op and the 2-CPU/1-CPU ratio. ns/op is wall
# time over all goroutines' transactions: a ratio below 1 means the second
# core finishes more transactions, above 1 that state both cores write
# costs more than the second core adds.
set -eu
GO=${GO:-go}
out=$($GO test -run '^$' -bench '^BenchmarkCellEditBareParallel$' -cpu 1,2 -count 5 .)
printf '%s\n' "$out" | grep '^BenchmarkCellEditBareParallel'
printf '%s\n' "$out" | awk '
	/^BenchmarkCellEditBareParallel/ {
		cpus = 1
		if (match($1, /-[0-9]+$/)) cpus = substr($1, RSTART + 1)
		v[cpus, ++n[cpus]] = $3
	}
	function median(c,   i, j, t, k) {
		k = n[c]
		for (i = 1; i <= k; i++) a[i] = v[c, i]
		for (i = 2; i <= k; i++)
			for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
	}
	END {
		if (!n[1] || !n[2]) { print "scale: missing a -cpu side"; exit 1 }
		m1 = median(1); m2 = median(2)
		printf "scale: 1 CPU median %.0f ns/op, 2 CPUs median %.0f ns/op, 2-CPU/1-CPU ratio %.3f\n", m1, m2, m2 / m1
	}'
