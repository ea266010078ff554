#!/usr/bin/env bash
# Builds the benchmark and the tcp-serve binary it drives, then runs it.
#
#   bash perfbench/run.sh --workload <figures|serve_cold|serve_warm|trace_replay> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p tcp-experiments --bin tcp-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/tcp-serve" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
