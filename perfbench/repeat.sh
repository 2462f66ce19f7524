#!/usr/bin/env bash
# Runs the benchmark once per seed on each named workload and saves each
# run's output as OUTDIR/<workload>-<seed>.txt, for `run.sh compare`:
#   bash perfbench/repeat.sh OUTDIR SECONDS "po-olap doc-crud" 1 2 3 4 5
set -euo pipefail
outdir=$1 seconds=$2 workloads=$3
shift 3
mkdir -p "$outdir"
here=$(cd "$(dirname "$0")" && pwd)
for w in $workloads; do
	for seed in "$@"; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$outdir/$w-$seed.txt"
		tail -n 1 "$outdir/$w-$seed.txt"
	done
done
