#!/usr/bin/env bash
# Runs the whole benchmark once: each workload in its own process, untraced
# (end-to-end metrics and the report gate) and then traced (per-layer
# metrics; spans in bench/out/<workload>.trace.json). Run it from the
# repository root:
#
#   bash bench/run.sh [seed] [seconds]
#
# The seed defaults to 1 and the budget to BENCHMARK.json's run_seconds.
# Seeds 1 and 2 have pinned report digests.
set -euo pipefail

seed=${1:-1}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)}
for workload in campaign collect metro; do
	for trace in 0 1; do
		echo "== $workload seed $seed trace $trace"
		bash bench/bench.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
