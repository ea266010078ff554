#!/usr/bin/env bash
# Perf regression gate: run the tcp-perf harness and compare against the
# committed baseline in bench/baseline.json, failing on any case whose
# median throughput dropped more than the threshold (default 10%).
#
# The committed baseline holds smoke-mode numbers; absolute throughput is
# machine-dependent, so refresh the baseline (scripts/check-perf.sh
# --update) whenever the reference machine changes. CI compares runs from
# the same runner class, where a >10% median drop is signal, not noise.
#
# Usage: scripts/check-perf.sh [--smoke|--full] [--update] [--threshold F]
#        scripts/check-perf.sh --promote [FILE]
#   --smoke      reduced input sizes (default; what CI runs)
#   --full       full-size inputs (for local before/after work)
#   --update     rewrite bench/baseline.json from this run instead of comparing
#   --promote    promote an already-measured report (default BENCH.json) to
#                bench/baseline.json — but only after verifying it is no
#                worse than the current baseline, so a bad run can never
#                become the new reference by accident
#   --threshold  allowed fractional median-throughput drop (default 0.10)
set -euo pipefail
cd "$(dirname "$0")/.."

mode=--smoke
update=0
promote=0
promote_file=BENCH.json
threshold=0.10
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) mode=--smoke ;;
        --full) mode= ;;
        --update) update=1 ;;
        --promote)
            promote=1
            if [ $# -gt 1 ] && [ "${2#-}" = "$2" ]; then
                promote_file="$2"
                shift
            fi
            ;;
        --threshold)
            threshold="$2"
            shift
            ;;
        *)
            echo "check-perf.sh: unknown argument '$1'" >&2
            exit 2
            ;;
    esac
    shift
done

baseline=bench/baseline.json
current="${BENCH_OUT:-BENCH.json}"

if [ "$promote" = 1 ]; then
    # Fail fast with one-line diagnostics before spending time on the
    # build: a promote needs a readable report and an existing baseline
    # to ratchet (the first baseline is created with --update).
    if [ ! -e "$promote_file" ]; then
        echo "check-perf.sh: no report at $promote_file to promote (run tcp-perf, or pass the report path: --promote FILE)" >&2
        exit 2
    fi
    if [ ! -f "$promote_file" ] || [ ! -r "$promote_file" ]; then
        echo "check-perf.sh: report $promote_file is not a readable file" >&2
        exit 2
    fi
    if [ ! -f "$baseline" ]; then
        echo "check-perf.sh: no baseline at $baseline to ratchet; create the first one with 'scripts/check-perf.sh --update'" >&2
        exit 2
    fi
fi

echo "== build tcp-perf (release) =="
cargo build --release -p tcp-perf

if [ "$promote" = 1 ]; then
    echo
    echo "== validate $promote_file against $baseline before promoting =="
    ./target/release/tcp-perf compare "$baseline" "$promote_file" --threshold "$threshold"
    echo
    echo "== streaming speedup gate on $promote_file =="
    ./target/release/tcp-perf ratio "$promote_file" trace_stream_decode trace_decode --min 1.3
    echo
    echo "== short-job set-up gate on $promote_file =="
    ./target/release/tcp-perf ratio "$promote_file" short_jobs_tcp8m short_jobs_null --min 0.6
    mkdir -p bench
    cp "$promote_file" "$baseline"
    echo
    echo "baseline promoted: $promote_file -> $baseline"
    exit 0
fi

echo
echo "== measure (${mode:---full}) =="
# More reps than the tcp-perf default: the gate compares medians across
# runs, so per-rep scheduling noise has to be squeezed out here.
# shellcheck disable=SC2086 # $mode is intentionally empty for --full
./target/release/tcp-perf $mode --warmup 2 --reps 9 --out "$current"

# read_trace is the TraceReader chunk decoder plus collecting every record
# into one Vec, so this ratio measures what materializing the records
# costs over the shared chunk decode.
echo
echo "== streaming speedup gate (trace_stream_decode >= 1.3x trace_decode) =="
./target/release/tcp-perf ratio "$current" trace_stream_decode trace_decode --min 1.3

# The same 26 short jobs with and without TCP-8M. Its PHT materialises
# rows on first train, so a job pays for the sets it touches; a table
# built dense again (8 MB nominal, ~58 MB of planes) drops this ratio
# from 0.72–0.79 to 0.12.
echo
echo "== short-job set-up gate (short_jobs_tcp8m >= 0.6x short_jobs_null) =="
./target/release/tcp-perf ratio "$current" short_jobs_tcp8m short_jobs_null --min 0.6

if [ "$update" = 1 ]; then
    mkdir -p bench
    cp "$current" "$baseline"
    echo
    echo "baseline updated: $baseline"
    exit 0
fi

if [ ! -f "$baseline" ]; then
    echo "check-perf.sh: no committed baseline at $baseline" >&2
    echo "run 'scripts/check-perf.sh --update' on the reference machine first" >&2
    exit 2
fi

echo
echo "== compare against $baseline (threshold $threshold) =="
./target/release/tcp-perf compare "$baseline" "$current" --threshold "$threshold"

echo
echo "perf gate passed"
