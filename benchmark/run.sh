#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package in release
# mode, then:
#
#   run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#       runs one workload in one process; the last line of standard
#       output is its result object (this is what BENCHMARK.json's
#       `command` invokes);
#   run.sh [--seed N] [--seconds S] [--out DIR]
#       runs every workload untraced (end-to-end metrics) and then traced
#       (per-layer metrics), prints every metric as
#       `workload metric value unit`, writes DIR/<workload>.json,
#       DIR/<workload>.layers.json and DIR/trace-<workload>.jsonl
#       (DIR defaults to benchmark/out), and exits non-zero if any
#       correctness check failed;
#   run.sh --compare A B
#       see compare.sh.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ "$(nproc)" -lt 2 ]; then
    echo "run.sh: the benchmark needs at least 2 cores (unet_small_mt2 and serve_mixed keep two busy); this machine has $(nproc)" >&2
    exit 2
fi

# Build output goes to standard error; standard output is the results'.
cargo build --offline --release --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/magis-benchmark"
MAGIS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
MAGIS_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export MAGIS_BENCH_RUSTC MAGIS_BENCH_COMMIT

for arg in "$@"; do
    case "$arg" in
    --workload | --compare | --list) exec "$bin" "$@" ;;
    esac
done

out=benchmark/out
args=("$@")
for i in "${!args[@]}"; do
    if [ "${args[$i]}" = --out ]; then out="${args[$((i + 1))]}"; fi
done

failed=0
for trace in 0 1; do
    for workload in $("$bin" --list); do
        result="$out/$workload.json"
        if [ "$trace" = 1 ]; then result="$out/$workload.layers.json"; fi
        rm -f "$result"
        "$bin" --workload "$workload" --trace "$trace" "$@" || true
        if ! grep -qs '"correct":true' "$result"; then
            echo "run.sh: $workload (--trace $trace) failed a correctness check or did not finish" >&2
            failed=1
        fi
    done
done
exit "$failed"
