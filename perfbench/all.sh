#!/usr/bin/env bash
# Runs every workload, untraced and then traced, and prints every metric
# with its unit (the readable table goes to standard error, each run's JSON
# result line to standard output). Run it from the root of the repository:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-30}"
for workload in paper-sweep isolate-sweep campaign-service; do
	for trace in 0 1; do
		bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
