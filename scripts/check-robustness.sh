#!/usr/bin/env bash
# Robustness gate: lint the whole workspace at deny-warnings strictness,
# then run the fault-injection acceptance suite and the error-layer unit
# tests. Everything here works offline — the workspace has no external
# dependencies.
#
# Usage: scripts/check-robustness.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo
echo "== tcp-lint (determinism / error-discipline invariants) =="
cargo run --release -q -p tcp-lint -- --workspace

echo
echo "== fault-injection acceptance tests =="
cargo test --test fault_injection

echo
echo "== sweep-engine determinism tests (executor + memo + cross-figure) =="
cargo test --test sweep_engine

echo
echo "== persistent-store acceptance tests (checkpoint/resume + quarantine) =="
cargo test --test store_persistence

echo
echo "== store fault-injection demo (every StoreFault quarantined) =="
cargo run --release -q --example store_faults

echo
echo "== chunked-kernel equivalence suite (chunked vs scalar reference) =="
cargo test -p tcp-cache --test kernel_equivalence

echo
echo "== PHT equivalence suite (row-materialising vs dense reference) =="
cargo test -p tcp-core --test pht_equivalence

echo
echo "== seeded property suites (core scheduling, single-run loop and"
echo "   warm-up equality, streaming decode/replay bit-identity) =="
cargo test --test cpu_properties
cargo test --test sim_properties
cargo test --test streaming_properties

echo
echo "== streaming-engine acceptance (bit-identity, tenant isolation,"
echo "   bounded-memory run over a synthetic trace >= 4x ring capacity) =="
cargo test --test stream_engine

echo
echo "== lint analyzer robustness proptests (lexer/parser total on garbage) =="
# proptests/ is its own workspace root precisely because `proptest` is a
# crates.io dependency: offline builds cannot resolve it. Attempt the
# build; when the registry is unreachable, skip with a notice instead of
# failing a gate that everything else passes offline.
if cargo build --manifest-path proptests/Cargo.toml --test lint_robustness -q 2>/dev/null; then
    cargo test --manifest-path proptests/Cargo.toml --test lint_robustness
else
    echo "skipped: proptest dependency unavailable (offline); run"
    echo "  cargo test --manifest-path proptests/Cargo.toml --test lint_robustness"
    echo "on a networked machine to execute the analyzer robustness properties"
fi

echo
echo "== error-layer unit tests (tcp-sim, tcp-cache, tcp-analysis) =="
cargo test -p tcp-sim
cargo test -p tcp-cache error
cargo test -p tcp-analysis trace_io
cargo test -p tcp-analysis trace_stream

echo
echo "robustness gate passed"
