#!/usr/bin/env bash
# Full local CI gate: build, every test of the workspace once under the
# default test runner, lints, then the determinism / identity suites
# again under the runner regimes that differ from it
# (RUST_TEST_THREADS=1 and =4 — the optimizer spawns its own workers
# either way), the grep gates, CLI and daemon smokes, and the
# benchmark's trajectory gate and peak-memory ceilings.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

# One recorder: a metrics exposition (standard input) may carry no
# series of the scheduler or simulator libraries, which record nothing.
no_library_series() {
    if grep -E '^magis_(sched|sim)_'; then
        echo "magis-sched and magis-sim record nothing: no writer of these series sees every candidate"
        exit 1
    fi
}

run cargo build --workspace --release
run cargo test --workspace -q
run cargo clippy --workspace --all-targets -- -D warnings

# Shim gate: a renamed item is renamed at its callers, not kept alive
# behind a deprecated alias.
echo
echo "==> deprecated-shim check"
if grep -rn -e '#\[deprecated' -e 'allow(deprecated)' crates src; then
    echo "deprecated shims found: migrate the callers and delete the old name"
    exit 1
fi

# One-profiler gate: `memory_profile_lifetimes` and `plan_from_lifetimes`
# are the only profiler and planner. The two delta names survive as
# forwards because benchmark/src/replay.rs calls them; nothing else may:
# one definition each and the one re-export line.
echo
echo "==> delta-forward check"
DELTA_USES="$(grep -rn -E 'memory_profile_delta|memory_plan_delta' crates src tests examples \
    | grep -v -E '^crates/sim/src/(memory|plan)\.rs:[0-9]+:pub fn |^crates/sim/src/lib\.rs:[0-9]+:pub use ' || true)"
if [ -n "$DELTA_USES" ]; then
    echo "$DELTA_USES"
    echo "the delta forwards are for benchmark/ only: call memory_profile_lifetimes / plan_from_lifetimes"
    exit 1
fi
# One resume: every checkpoint carries the frontier. `with_frontier`
# survives as a no-op forward because benchmark/src/layers.rs calls it;
# nothing else may: its one definition.
FRONTIER_USES="$(grep -rn 'with_frontier' crates src tests examples \
    | grep -v -E '^crates/core/src/optimizer/config\.rs:[0-9]+: +pub fn with_frontier\(' || true)"
if [ -n "$FRONTIER_USES" ]; then
    echo "$FRONTIER_USES"
    echo "with_frontier is for benchmark/ only: every checkpoint carries the frontier"
    exit 1
fi
# No state keeps a lifetime table: `Eval::lifetimes` survives, always
# the empty table, because benchmark/src/replay.rs names it; nothing
# else may read it.
LIFETIME_USES="$(grep -rn -E '\beval\.lifetimes\b' crates src tests examples || true)"
if [ -n "$LIFETIME_USES" ]; then
    echo "$LIFETIME_USES"
    echo "Eval::lifetimes is for benchmark/ only: plan from the profile's table, then drop it"
    exit 1
fi
# The one planner replays counting-sorted events over an offset-ordered
# free list: the non-test part of plan.rs holds no ordered map or set
# and calls no sort, and the three entry points benchmark/ calls keep
# their signatures.
PLAN_SRC="$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/sim/src/plan.rs)"
PLAN_FLAT="$(tr -s ' \n' ' ' <<<"$PLAN_SRC")"
for sig in \
    'pub fn memory_plan(g: &Graph, order: &[NodeId]) -> Result<MemoryPlan, CostError> {' \
    'pub fn plan_from_lifetimes( g: &Graph, order: &[NodeId], lt: &Lifetimes, ) -> Result<MemoryPlan, CostError> {' \
    'pub fn memory_plan_delta( g: &Graph, order: &[NodeId], lt: &Lifetimes, _parent: &MemoryPlan, ) -> Result<MemoryPlan, CostError> {'; do
    grep -q -F -e "$sig" <<<"$PLAN_FLAT" || { echo "plan.rs: signature changed: $sig"; exit 1; }
done
if grep -n -E 'BTreeMap|BTreeSet|\.sort' <<<"$PLAN_SRC"; then
    echo "plan.rs: the planner keeps no ordered map or set and sorts nothing"
    exit 1
fi
# One DP: the non-test part of crates/sched/src defines `dp_schedule`
# and its level loop `dp_on` and no other DP or beam routine, and the
# map-keyed DP lives only as dp_identity's oracle.
echo
echo "==> one-DP check"
DP_FNS="$(for f in crates/sched/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
    done | grep -E 'fn [a-z0-9_]*(dp|beam)[a-z0-9_]*[<(]' \
    | grep -v -E ': (pub )?fn (dp_schedule|dp_on)[<(]' || true)"
MAP_KEYED="$(grep -rln 'fn dp_map_keyed' crates src tests examples \
    | grep -v -x 'crates/sched/tests/dp_identity/reference.rs' || true)"
if [ -n "$DP_FNS$MAP_KEYED" ]; then
    echo "$DP_FNS$MAP_KEYED"
    echo "one DP: dp_schedule and dp_on; the map-keyed DP stays in dp_identity/reference.rs"
    exit 1
fi

# One-overlay-path gate: the region workspace and the recorded scale
# edits are how the one overlay path works, not a mode of it. A
# transaction has no state a caller can switch (its only field is the
# graph), the search and evaluation configurations have the fields they
# had, and no stage has a `_fast` / `_cached` twin.
echo
echo "==> one-overlay-path check"
pub_fields() {
    awk -v open="^pub struct $2 \\{" '$0 ~ open { on = 1; next } on && /^}/ { exit }
        on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' "$1"
}
if [ "$(pub_fields crates/graph/src/txn.rs GraphTxn)" != 0 ] \
    || [ "$(pub_fields crates/core/src/state.rs EvalContext)" != 6 ] \
    || [ "$(pub_fields crates/core/src/optimizer/config.rs OptimizerConfig)" != 18 ] \
    || grep -n -E 'pub fn [a-z_]*mode|pub enum [A-Za-z]*Mode' crates/graph/src/txn.rs \
    || grep -rn -E 'fn [a-z_]+_(fast|cached)\b' crates/graph/src crates/core/src/fission.rs crates/core/src/state.rs; then
    echo "the overlay has one path: no switch on GraphTxn, no new OptimizerConfig / EvalContext field, no twin"
    exit 1
fi

# Twins gate: one of each where benchmark/ pins nothing. The simulator's
# entry points are the checked ones, a transaction ends one way
# (`commit`, returning the graph), and a search has one wall-clock limit
# (`budget`, stopping with `deadline`). Diagnostics have one channel,
# the trace recorder (no leveled stderr logger), and a cost model is
# built over a backend (`CostModel::for_backend`, or its default), never
# over a raw device spec.
# The one exception is the front-door fixture proving a journaled
# spec's retired hard deadline is ignored.
echo
echo "==> twins check"
if grep -rn -E 'pub fn (evaluate|simulate|simulate_latency|memory_profile)[<(]' crates/sim/src \
    || grep -rn -E 'GraphDelta|into_graph|fn delta\(|wall_limit|budget-expired' crates src tests examples \
        | grep -v -E '^tests/front_door\.rs:[0-9]+: .*"wall_limit_ms":' \
    || grep -rn -E 'obs_(log|error|warn|info|debug|trace)!|magis_obs::log|CostModel::new\(' \
        crates src tests examples; then
    echo "one of each: checked simulator entries, GraphTxn::commit, OptimizerConfig::budget," \
        "the trace recorder, CostModel::for_backend"
    exit 1
fi
# The daemon keeps each job in one table under one lock: the non-test
# part of crates/serve/src names `Mutex<` once, spawns threads at two
# sites (the workers and the connection handlers), and has no per-job
# progress cell, result-cache module or watchdog thread.
SERVE_SRC="$(for f in crates/serve/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
    done)"
if [ "$(grep -c 'Mutex<' <<<"$SERVE_SRC")" != 1 ] \
    || [ "$(grep -c 'thread::spawn' <<<"$SERVE_SRC")" != 2 ] \
    || grep -E 'ProgressCell|ResultCache|watchdog_loop' <<<"$SERVE_SRC"; then
    grep -E 'Mutex<|thread::spawn' <<<"$SERVE_SRC"
    echo "one table under one lock: one Mutex<, two thread::spawn sites in crates/serve/src"
    exit 1
fi

# Documentation gate: rustdoc must build clean (missing_docs is warn
# in sched/sim/core/obs, promoted to an error here) and every doc
# example must run.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
run cargo test --workspace --doc -q

# Doc-path gate: a backticked name of a source, script, data or doc file
# in the documentation must name a tracked file — in full, or as the
# tail of its path (`optimizer/engine.rs`, `fission.rs`). Placeholders
# (`<workload>.json`, globs, absolute and variable paths) are not names.
# ROADMAP.md, CHANGES.md and ISSUE.md are history and plans — they name
# files that are gone or not yet written — and PAPER*.md / SNIPPETS.md
# quote other repositories.
echo
echo "==> doc-path check"
# Files the documented commands and the daemon write at run time.
RUNTIME_FILES="result.json failed.json metrics_inc.txt metrics_full.txt"
TRACKED="$(git ls-files --cached --others --exclude-standard)"
DOC_PATHS_OK=1
for doc in README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md benchmark/README.md \
    .claude/skills/verify/SKILL.md; do
    while IFS= read -r path; do
        case "$path" in
        /* | *'<'* | *'*'* | *'$'* | *'{'* | *…*) continue ;;
        esac
        case " $RUNTIME_FILES " in *" $path "*) continue ;; esac
        grep -q -x -e "$path" -e ".*/$path" <<<"$TRACKED" && continue
        echo "$doc: \`$path\` names no tracked file"
        DOC_PATHS_OK=0
    done < <(grep -o '`[^` ]*\.\(rs\|sh\|json\|csv\|txt\|md\)`' "$doc" | tr -d '`' | sort -u)
done
[ "$DOC_PATHS_OK" = 1 ] || exit 1

# Doc-budget gate: each fact has one home, so the documentation stays
# small. The four docs together hold at most 115,000 bytes and the
# verify skill 10,000. A CHANGES.md entry (a line `- PR N: …`) from
# PR 41 on holds at most 1,500 bytes, not counting a closing
# ` Runs: …` pointer to its results/prN_benchmark_runs.txt file;
# earlier entries stay as they were written.
echo
echo "==> doc-budget check"
DOC_BYTES="$(cat README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md | wc -c)"
SKILL_BYTES="$(wc -c <.claude/skills/verify/SKILL.md)"
if [ "$DOC_BYTES" -gt 115000 ] || [ "$SKILL_BYTES" -gt 10000 ]; then
    echo "README + DESIGN + ARCHITECTURE + EXPERIMENTS: $DOC_BYTES bytes (budget 115000); verify skill: $SKILL_BYTES (budget 10000)"
    exit 1
fi
LONG_ENTRIES="$(LC_ALL=C awk 'match($0, /^- PR [0-9]+:/) {
        n = substr($0, 6, RLENGTH - 6) + 0
        if (n < 41) next
        entry = $0
        p = 0
        while ((i = index(substr(entry, p + 1), " Runs: ")) > 0) p += i
        if (p > 0 && index(substr(entry, p), "_benchmark_runs.txt") > 0) entry = substr(entry, 1, p - 1)
        if (length(entry) > 1500) print "PR " n ": " length(entry) " bytes"
    }' CHANGES.md)"
if [ -n "$LONG_ENTRIES" ]; then
    echo "$LONG_ENTRIES"
    echo "a CHANGES.md entry is at most 1,500 bytes plus its runs-file pointer"
    exit 1
fi

# `cargo test --workspace` above ran every suite under the default
# runner. The legs below repeat, single-threaded (and once with four
# runner threads), the suites whose contract is "the same answer however
# the threads fall": the determinism harness, injected-fault
# trajectories (fault keys derive from expansion number + candidate
# index, never thread identity), the greedy goldens and MCTS
# kill/resume exactness, CoW-vs-deep-copy identity and parent-child
# node sharing, the overlay / F-Tree / DP oracles, the overlay's and the
# memory plans' committed digests (the plans' in debug and release), and
# incremental-vs-full evaluation.
run env RUST_TEST_THREADS=1 cargo test -q --test parallel_search
run env RUST_TEST_THREADS=1 cargo test -q --test fault_injection
run env RUST_TEST_THREADS=4 cargo test -q --test fault_injection
run env RUST_TEST_THREADS=1 cargo test -q -p magis-core --test driver_search
run env RUST_TEST_THREADS=1 cargo test -q --test cow_graph
run env RUST_TEST_THREADS=1 cargo test -q --test overlay_identity
run env RUST_TEST_THREADS=1 cargo test -q -p magis-core --test overlay_fingerprint
run env RUST_TEST_THREADS=1 cargo test -q --test memory_planner
run env RUST_TEST_THREADS=1 cargo test -q --release --test memory_planner
run env RUST_TEST_THREADS=1 cargo test -q --test ftree_identity
run env RUST_TEST_THREADS=1 cargo test -q -p magis-sched --test dp_identity
run env RUST_TEST_THREADS=1 cargo test -q -p magis-sched --test dp_optimality
# The scheduler's identity suites (dp_identity, dp_optimality's gap
# table, window_fingerprint's committed digests, the property suites)
# once more at the optimisation
# level the search runs at: release builds drop debug assertions and
# wrap where debug builds panic.
run cargo test -q -p magis-sched --release
run env RUST_TEST_THREADS=1 cargo test -q --test incremental_eval

# Front-door smoke: neither the search nor the daemon runs a default
# when it is handed something it does not understand — usage, exit 2.
for cmd in "magis optimize" "magis serve"; do
    status=0
    # shellcheck disable=SC2086
    ./target/release/$cmd --no-such-flag x 2>/dev/null || status=$?
    [ "$status" = 2 ] || { echo "$cmd --no-such-flag x exited $status, not 2"; exit 1; }
done

# Backend CLI smoke: the registry is reachable end-to-end (--backend-list,
# a non-default profile, and an unknown name rejected with usage exit 2).
run ./target/release/magis --backend-list
run ./target/release/magis inspect --workload unet --scale 0.1 --backend a100
if ./target/release/magis inspect --workload unet --backend warp-drive 2>/dev/null; then
    echo "unknown backend was not rejected"; exit 1
fi

# Planner CLI smoke: a short paranoid planned-objective search runs end
# to end, and a bogus objective is rejected with usage exit 2.
run ./target/release/magis optimize --workload unet --scale 0.1 \
    --budget-ms 2000 --objective planned --paranoia all
if ./target/release/magis optimize --workload unet --objective wishful 2>/dev/null; then
    echo "unknown objective was not rejected"; exit 1
fi

# Driver CLI smoke: an MCTS search runs end to end under the planned
# objective, and an unknown strategy is rejected with usage exit 2.
run ./target/release/magis optimize --workload unet --scale 0.1 \
    --budget-ms 2000 --driver mcts --objective planned
if ./target/release/magis optimize --workload unet --driver quantum 2>/dev/null; then
    echo "unknown driver was not rejected"; exit 1
fi

# Crash-recovery smoke: hard-kill a CLI search that checkpoints, resume
# it from the survived checkpoint to 200 evaluations past the kill, and
# run the same search to the same count without a kill. The two final checkpoints must be the same bytes: a checkpoint
# is a function of the search state, whether its states share storage
# (the uninterrupted run's) or were parsed one by one (the resumed
# run's). One field aside — a checkpoint holds the number of writes
# before it and cannot count its own, so the run resumed from a
# periodic write stays one behind in `counters`' ninth figure. (No
# evaluation cache: a resumed search starts with a cold one, and a
# cache-served candidate may differ from a fresh one in a latency's
# last bit.)
CKPT="$(mktemp -d)/unet.ckpt"
echo
echo "==> kill/resume smoke (checkpoint at $CKPT)"
SEARCH=(--budget-ms 600000 --eval-cache 0 --checkpoint-every 4)
# Run the built binary directly: killing `cargo run` would orphan the
# search process and leave it racing the resume step below.
timeout -s KILL 2 ./target/release/magis optimize \
    --workload unet --scale 0.2 --mode memory "${SEARCH[@]}" --checkpoint "$CKPT" || true
test -f "$CKPT" || { echo "no checkpoint survived the kill"; exit 1; }
CAP=$(($(awk '$1 == "counters" { print $3; exit }' "$CKPT") + 200))
run ./target/release/magis optimize --resume "$CKPT" \
    "${SEARCH[@]}" --max-candidates "$CAP" --checkpoint "$CKPT.resumed"
run ./target/release/magis optimize --workload unet --scale 0.2 --mode memory \
    "${SEARCH[@]}" --max-candidates "$CAP" --checkpoint "$CKPT.straight"
written() { awk '$1 == "counters" { print $10; exit }' "$1"; }
but_written() { awk '$1 == "counters" { $10 = "-" } { print }' "$1"; }
if [ $(($(written "$CKPT.resumed") + 1)) != "$(written "$CKPT.straight")" ] \
    || ! cmp <(but_written "$CKPT.resumed") <(but_written "$CKPT.straight"); then
    echo "the resumed search's final checkpoint is not the uninterrupted search's"
    exit 1
fi
rm -rf "$(dirname "$CKPT")"

# Retired-format gate: v6 is the one checkpoint format; nothing reads,
# writes or documents its predecessors. One file keeps a v5 header: the
# fixture that proves a v5 checkpoint is refused by name.
echo
echo "==> retired checkpoint format check"
if grep -rn -E 'magis-checkpoint v[45]\b' --exclude=unet_cap40_v5.ckpt crates src tests \
    DESIGN.md ARCHITECTURE.md README.md .claude/skills/verify/SKILL.md; then
    echo "checkpoint formats v4 and v5 are retired: v6 is the only format written or read"
    exit 1
fi

# Deadline smoke: the one wall-clock limit returns a best-so-far result
# and reports the deadline stop reason in the summary.
echo
echo "==> deadline smoke"
DEADLINE_OUT="$(./target/release/magis optimize --workload unet --scale 0.15 \
    --mode memory --budget-ms 300 2>&1)"
grep -q "stop reason *deadline" <<<"$DEADLINE_OUT" \
    || { echo "$DEADLINE_OUT"; echo "deadline stop reason missing"; exit 1; }

# Service smoke: start the daemon, push two jobs through the CLI
# client (the second hits the cross-request result cache), then
# SIGTERM and require a clean drain.
SRV_DIR="$(mktemp -d)"
echo
echo "==> serve smoke (state in $SRV_DIR)"
./target/release/magis serve --addr 127.0.0.1:0 \
    --state-dir "$SRV_DIR/state" --port-file "$SRV_DIR/port" --workers 2 &
SRV_PID=$!
for _ in $(seq 1 100); do test -s "$SRV_DIR/port" && break; sleep 0.1; done
test -s "$SRV_DIR/port" || { echo "daemon never wrote its port file"; exit 1; }
run ./target/release/magis submit --port-file "$SRV_DIR/port" \
    --workload unet --scale 0.1 --max-candidates 40
run ./target/release/magis submit --port-file "$SRV_DIR/port" \
    --workload unet --scale 0.1 --max-candidates 40

# Observability leg: attach a watcher to an in-flight job, then scrape
# the metrics surface and require real completion counts plus the
# per-job correlated trace.
SUBMIT_OUT="$(./target/release/magis submit --port-file "$SRV_DIR/port" \
    --workload unet --scale 0.15 --max-candidates 200 --wait false)"
JOB_ID="$(grep -o '[0-9]\+' <<<"$SUBMIT_OUT" | head -1)"
test -n "$JOB_ID" || { echo "$SUBMIT_OUT"; echo "no job id from nowait submit"; exit 1; }
run ./target/release/magis watch --port-file "$SRV_DIR/port" --id "$JOB_ID"
METRICS_OUT="$(./target/release/magis metrics --port-file "$SRV_DIR/port")"
grep -q '^magis_serve_queue_depth ' <<<"$METRICS_OUT" \
    || { echo "$METRICS_OUT"; echo "metrics scrape is missing the queue-depth gauge"; exit 1; }
COMPLETED="$(awk '$1 == "magis_serve_jobs_completed" { print $2 }' <<<"$METRICS_OUT")"
[ -n "$COMPLETED" ] && [ "$COMPLETED" -ge 1 ] \
    || { echo "$METRICS_OUT"; echo "magis_serve_jobs_completed is empty or zero"; exit 1; }
no_library_series <<<"$METRICS_OUT"
run ./target/release/magis trace-check \
    --trace "$SRV_DIR/state/jobs/job-$JOB_ID/trace.jsonl" --expect-job "$JOB_ID"
run ./target/release/magis top --port-file "$SRV_DIR/port" --iterations 1

kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "daemon did not exit cleanly after SIGTERM"; exit 1; }
rm -rf "$SRV_DIR"

# Traced smoke: a short optimize run must produce a JSONL trace where
# every line parses (trace-check) and a non-empty metrics snapshot, and
# both must come from the one layer that records: every trace record's
# target is `magis_core`, no series is `magis_sched_*` / `magis_sim_*`.
OBS_DIR="$(mktemp -d)"
echo
echo "==> traced smoke (artifacts in $OBS_DIR)"
run ./target/release/magis optimize \
    --workload unet --scale 0.15 --mode memory --budget-ms 3000 \
    --trace-out "$OBS_DIR/trace.jsonl" --metrics-out "$OBS_DIR/metrics.txt"
TRACE_NAMES="$(./target/release/magis trace-check --trace "$OBS_DIR/trace.jsonl")"
echo "$TRACE_NAMES"
if grep -E '^ +[^ /]+/[^ ]+: [0-9]+$' <<<"$TRACE_NAMES" | grep -v -E '^ +magis_core/'; then
    echo "trace records from a layer other than magis_core"
    exit 1
fi
test -s "$OBS_DIR/metrics.txt" || { echo "metrics snapshot is empty"; exit 1; }
grep -q "magis_core_expansions" "$OBS_DIR/metrics.txt" \
    || { echo "metrics snapshot is missing core counters"; exit 1; }
no_library_series <"$OBS_DIR/metrics.txt"
rm -rf "$OBS_DIR"

# Benchmark smoke: one short traced and one short untraced run of every
# workload. The traced replay checks every staged candidate bit-equal to
# `MState::from_applied`; the last line of a run is its result object
# and says whether every check held. On `bert_full` — the workload where
# a second, delta profile once disagreed with the from-scratch one — the
# replay must find no such candidate and the search must reject none.
#
# Trajectory gate: timings swing ±20% on a shared box and are not gated;
# what a search *does* is deterministic and is. Each run's trajectory
# counts (the columns of results/trajectory_counts.tsv: `peak_ratio`
# from the untraced result, the rest from the traced one) must equal the
# committed row. A change that means to move them regenerates the file
# and says why.
COUNTS=results/trajectory_counts.tsv
COUNTS_HEADER="$(grep -v '^#' "$COUNTS" | head -n 1)"
# Retained-memory gate: the untraced smoke's `rss_peak_mb` (MiB) stays
# at or under 1.2 x the median of ten alternating 20 s runs of the
# change that last set it. DESIGN.md D10 says what a retained state
# holds and names the file that lists those runs. A change that means
# to retain more memory moves a ceiling and says why.
declare -A RSS_CEILING=([unet_small]=23.6 [unet_small_mt2]=25.1 [bert_full]=74.1 [resnet_planned_mcts]=27.8 [serve_mixed]=9.4)
for workload in bert_full unet_small unet_small_mt2 resnet_planned_mcts serve_mixed; do
    echo
    echo "==> benchmark smoke ($workload)"
    BENCH_OUT="$(mktemp -d)"
    for trace in 1 0; do
        benchmark/run.sh --workload "$workload" --seed 1 --seconds 3 --trace "$trace" --out "$BENCH_OUT" \
            | tail -n 1 | grep -q '"correct":true' \
            || { echo "benchmark smoke: $workload (--trace $trace) did not end with \"correct\":true"; exit 1; }
    done
    if [ "$workload" = bert_full ]; then
        for metric in sim.delta_diverged_ratio core.invariant_reject_ratio; do
            grep -q "\"$metric\":{\"value\":0.0," "$BENCH_OUT/bert_full.layers.json" \
                || { echo "benchmark smoke: bert_full reports a non-zero $metric"; exit 1; }
        done
    fi
    EXPECTED="$(awk -F'\t' -v w="$workload" '$1 == w' "$COUNTS")"
    ACTUAL="$workload"
    for metric in $(cut -f2- <<<"$COUNTS_HEADER"); do
        result="$BENCH_OUT/$workload.layers.json"
        if [ "$metric" = peak_ratio ]; then result="$BENCH_OUT/$workload.json"; fi
        ACTUAL+="$(printf '\t%s' "$(grep -o "\"$metric\":{\"value\":[^,]*" "$result" | head -n 1 | sed 's/.*"value"://')")"
    done
    if [ "$ACTUAL" != "$EXPECTED" ]; then
        echo "trajectory gate: $workload differs from $COUNTS"
        paste <(tr '\t' '\n' <<<"$COUNTS_HEADER") <(tr '\t' '\n' <<<"$EXPECTED") <(tr '\t' '\n' <<<"$ACTUAL") \
            | awk -F'\t' '$2 != $3 { print "  " $1 ": committed " $2 ", this run " $3 }'
        exit 1
    fi
    CEILING="${RSS_CEILING[$workload]:-}"
    if [ -n "$CEILING" ]; then
        RSS="$(grep -o '"rss_peak_mb":{"value":[^,]*' "$BENCH_OUT/$workload.json" | sed 's/.*"value"://')"
        awk -v rss="$RSS" -v cap="$CEILING" 'BEGIN { exit !(rss != "" && rss <= cap) }' \
            || { echo "peak-memory gate: $workload rss_peak_mb $RSS MiB is over its $CEILING MiB ceiling"; exit 1; }
    fi
    rm -rf "$BENCH_OUT"
done

# Overhead guard: with tracing disabled, the always-on instrumentation
# must stay within 5% (+ noise floor) of a fully suppressed run.
run ./target/release/obs_overhead --check --out "$(mktemp -d)"

echo
echo "CI gate passed."
