#!/usr/bin/env bash
# Prints every end-to-end metric, by name and with its unit, for all four
# workloads, then the per-layer table of a traced run of each (with the
# layer-sum ratio and the tracing overhead). Exits non-zero if any check
# failed.
#
#   bash perfbench/report.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-0}"
seconds="${2:-20}"
status=0
for trace in 0 1; do
    for workload in figures serve_cold serve_warm trace_replay; do
        bash perfbench/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"
