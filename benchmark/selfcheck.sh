#!/usr/bin/env bash
# The A/A gate: the full set twice on one build, then the comparison.
# Two sets of the same code must not differ by more than any metric's
# bound; if they do, the bounds (or the machine) cannot carry a claim.
# Extra arguments (--seed, --seconds) go to both sets.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
out="$(realpath "$here")/out"
bash "$here/run.sh" --out "$out/selfcheck-a" "$@"
bash "$here/run.sh" --out "$out/selfcheck-b" "$@"
bash "$here/compare.sh" "$out/selfcheck-a" "$out/selfcheck-b"
