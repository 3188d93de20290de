#!/usr/bin/env bash
# compare.sh A B — A and B are output directories of run.sh (or single
# <workload>.json files). Prints one row per workload and end-to-end
# metric: both values, the change, the metric's bound from
# BENCHMARK.json and a verdict (better / same / worse / unresolved),
# then a fail_ratio row per workload. Exits non-zero on any `worse` or
# any rise in fail_ratio.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: compare.sh A B" >&2; exit 2; }
# run.sh changes to the repository root: hand it absolute paths.
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --compare "$(realpath "$1")" "$(realpath "$2")"
