#!/usr/bin/env bash
# A/A noise gate: runs the suite K times, twice, on one commit, and checks
# the benchmark against its own bounds. Every run gets another seed.
#
#   bash bench/aa.sh [K=5] [seconds=run_seconds of BENCHMARK.json]
#
# Prints, per (workload, end-to-end metric), both sets' medians and
# quartile spreads (statistics.quantiles(values, n=4), as a share of the
# median) and how much worse set B's median is than set A's. Exits non-zero
# if a spread or a difference exceeds the metric's bound. setup_s's spread
# is printed but not gated, as in the driver. Raw results are kept in
# .bench_build/aa/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
k="${1:-5}"
seconds="${2:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}"
out="$root/.bench_build/aa"
mkdir -p "$out"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"

for set in A B; do
	: >"$out/$set.jsonl"
	base=0
	[ "$set" = B ] && base=100
	for i in $(seq 1 "$k"); do
		for w in $workloads; do
			echo "aa: set $set run $i/$k $w" >&2
			line="$(bash "$here/run.sh" --workload "$w" --seed $((base + i)) --seconds "$seconds" --trace 0 | tail -n 1)"
			printf '{"workload":"%s","result":%s}\n' "$w" "$line" >>"$out/$set.jsonl"
		done
	done
done

python3 - "$root/BENCHMARK.json" "$out/A.jsonl" "$out/B.jsonl" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
def load(path):
    runs = {}
    for line in open(path):
        rec = json.loads(line)
        if not rec["result"]["correct"] or rec["result"]["failed"]:
            sys.exit("aa: a run of %s failed its checks" % rec["workload"])
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs
a, b = load(sys.argv[2]), load(sys.argv[3])

def stats(v):
    q1, med, q3 = statistics.quantiles(v, n=4)
    return med, (q3 - q1) / med if med else 0.0

bad = 0
print("| workload | metric | bound | median A | spread A | median B | spread B | B worse by | ok |")
print("|---|---|---|---|---|---|---|---|---|")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        key = (w["name"], m["name"])
        ma, sa = stats(a[key])
        mb, sb = stats(b[key])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        bad += not ok
        print("| %s | %s | %.2f | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %s |" % (
            w["name"], m["name"], m["bound"], ma, 100 * sa, mb, 100 * sb, 100 * worse, "ok" if ok else "FAIL"))
sys.exit(1 if bad else 0)
EOF
