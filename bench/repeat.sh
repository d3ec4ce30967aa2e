#!/usr/bin/env bash
# Checks that the benchmark repeats. It runs each workload untraced in two
# sets of RUNS runs (default 3) on the same seeds 1..RUNS, and prints per set
# each end-to-end metric's median and quartiles and its spread (quartile
# distance over the median), then how far the second set's median is from
# the first's. It exits non-zero if a run failed its checks, if the two
# medians differ by more than the metric's bound in BENCHMARK.json in either
# direction, or if a spread other than setup_s's exceeds its bound; a spread
# above a third of its bound is flagged but does not fail. Run it from the
# repository root:
#
#   bash bench/repeat.sh [runs] [workload...]
set -euo pipefail

runs=${1:-3}
shift || true
workloads=${*:-campaign collect metro}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
out=bench/out/repeat
mkdir -p "$out"
for set in 1 2; do
	for workload in $workloads; do
		for seed in $(seq 1 "$runs"); do
			echo "== set $set $workload seed $seed" >&2
			bash bench/bench.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
				tail -n 1 >"$out/$workload.$set.$seed.json"
		done
	done
done

python3 - "$out" "$runs" $workloads <<'EOF'
import json
import statistics
import sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
with open("BENCHMARK.json") as f:
    bench = json.load(f)
ok = True
for w in workloads:
    sets = []
    for s in (1, 2):
        results = []
        for seed in range(1, runs + 1):
            with open(f"{out}/{w}.{s}.{seed}.json") as f:
                results.append(json.load(f))
        if not all(r["correct"] for r in results):
            print(f"{w}: set {s} has a run that failed its checks")
            ok = False
        sets.append(results)
    print(f"== {w} ({runs} runs per set, seeds 1..{runs})")
    print(f"{'metric':<20} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians = []
        for s, results in enumerate(sets, 1):
            vals = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            medians.append(med)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = f"  above bound {bound}"
                ok = False
            elif spread > bound / 3:
                flag = f"  above a third of bound {bound}"
            print(f"{name:<20} {s:>3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} {spread:>8.4f}{flag}")
        change = (medians[1] - medians[0]) / medians[0]
        worse = -change if m["better"] == "higher" else change
        flag = ""
        if abs(change) > bound:
            flag = f"  differs by more than bound {bound}"
            ok = False
        print(f"{name:<20} set 2 median {change:+.4f} vs set 1, worse by {worse:+.4f} (bound {bound}){flag}")
sys.exit(0 if ok else 1)
EOF
