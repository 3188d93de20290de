//! The incremental-evaluation contract, enforced end-to-end on the
//! bench workloads.
//!
//! Candidates derived by one rewrite are scheduled incrementally
//! against their parent (and served from the structural-hash
//! evaluation cache), and the contract is *bit-identity*: the metrics
//! an incremental evaluation reports must equal a from-scratch
//! re-evaluation of the same state — same peak bytes (`u64` equality),
//! same latency (`f64` bit pattern), valid schedule. Under
//! [`ParanoiaLevel::All`] the optimizer cross-checks every evaluated
//! candidate against a full re-evaluation and rejects any mismatch, so
//! `invariant_rejections == 0` over a whole search *is* the proof that
//! incremental evaluation never diverged.
//!
//! The second contract is determinism: with the evaluation cache on
//! (its default), `threads = 1` and `threads = N` must still walk the
//! same trajectory, because the cache is frozen during the parallel
//! fan-out and only mutated at the ordered single-threaded merge.

use magis::core::optimizer::ParanoiaLevel;
use magis::core::rules::{self, RuleConfig, Transform};
use magis::core::state::EvalMode;
use magis::graph::algo::hash::graph_hash;
use magis::prelude::*;
use magis::sim::{memory_plan, memory_profile_checked, MemObjective};
use std::collections::BTreeSet;
use std::time::Duration;

/// A capped, never-timing-out configuration (same shape as the
/// parallel-search harness: timing must never influence the
/// trajectory).
fn capped(objective: Objective, threads: usize) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(60)
        .with_threads(threads)
}

/// Runs a paranoid (cross-checked) incremental search and asserts the
/// bit-identity contract held on every candidate.
fn assert_bit_identical(w: Workload, scale: f64) {
    let tg = w.build(scale);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let mut cfg = capped(
        Objective::MinMemory { lat_limit: init.eval.latency * 1.25 },
        2,
    )
    .with_paranoia(ParanoiaLevel::All);
    assert_eq!(cfg.ctx.mode, EvalMode::Incremental, "incremental is the default");
    cfg.ctx.mode = EvalMode::Incremental;
    let res = optimize(tg.graph.clone(), &cfg);
    assert!(res.stats.evaluated > 0, "{w:?}: search evaluated candidates");
    assert_eq!(
        res.stats.invariant_rejections, 0,
        "{w:?}: every incremental evaluation matched its full re-evaluation bit-for-bit"
    );
    // The incumbent must actually be an improvement-or-equal state with
    // sane metrics — paranoia only filters, it must not corrupt.
    assert!(res.best.eval.peak_bytes > 0);
    assert!(res.best.eval.peak_bytes <= init.eval.peak_bytes);
    assert!(res.best.eval.latency.is_finite());
}

#[test]
fn incremental_bit_identical_on_unet() {
    assert_bit_identical(Workload::UNet, 0.2);
}

#[test]
fn incremental_bit_identical_on_bert() {
    assert_bit_identical(Workload::BertBase, 0.12);
}

#[test]
fn incremental_bit_identical_on_resnet() {
    assert_bit_identical(Workload::ResNet50, 0.1);
}

#[test]
fn incremental_bit_identical_on_vit() {
    assert_bit_identical(Workload::VitBase, 0.1);
}

/// Everything a trajectory determines, for cross-thread comparison.
struct Run {
    best: (u64, f64),
    history: Vec<(u64, f64)>,
    evaluated: usize,
    cache_hits: usize,
    cache_misses: usize,
}

fn run(tg: &Graph, threads: usize) -> Run {
    let init = MState::initial(tg.clone(), &EvalContext::default());
    let cfg = capped(
        Objective::MinMemory { lat_limit: init.eval.latency * 1.25 },
        threads,
    );
    let res = optimize(tg.clone(), &cfg);
    Run {
        best: res.best.cost(),
        history: res.history.iter().map(|p| (p.peak_bytes, p.latency)).collect(),
        evaluated: res.stats.evaluated,
        cache_hits: res.stats.eval_cache_hits,
        cache_misses: res.stats.eval_cache_misses,
    }
}

#[test]
fn eval_cache_is_deterministic_across_threads() {
    // The evaluation cache stays on (default capacity): hit/miss
    // decisions are part of the trajectory, so they must not depend on
    // worker interleaving.
    let tg = Workload::UNet.build(0.2);
    let serial = run(&tg.graph, 1);
    for threads in [2, 4] {
        let parallel = run(&tg.graph, threads);
        assert_eq!(serial.best.0, parallel.best.0, "peak bytes identical at {threads} threads");
        assert_eq!(
            serial.best.1.to_bits(),
            parallel.best.1.to_bits(),
            "latency bit-identical at {threads} threads"
        );
        assert_eq!(serial.history.len(), parallel.history.len());
        for (s, p) in serial.history.iter().zip(&parallel.history) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1.to_bits(), p.1.to_bits());
        }
        assert_eq!(serial.evaluated, parallel.evaluated);
        assert_eq!(serial.cache_hits, parallel.cache_hits, "cache hits identical");
        assert_eq!(serial.cache_misses, parallel.cache_misses, "cache misses identical");
    }
}

#[test]
fn full_mode_also_passes_paranoia() {
    // `--eval full` is the escape hatch; the cross-check must be a
    // no-op tautology there (full vs full), never a false rejection.
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let mut cfg = capped(
        Objective::MinMemory { lat_limit: init.eval.latency * 1.25 },
        2,
    )
    .with_paranoia(ParanoiaLevel::All)
    .with_eval_cache(0);
    cfg.ctx.mode = EvalMode::Full;
    let res = optimize(tg.graph.clone(), &cfg);
    assert!(res.stats.evaluated > 0);
    assert_eq!(res.stats.invariant_rejections, 0);
    assert_eq!(res.stats.eval_cache_hits, 0, "cache disabled");
}

/// Walks the benchmark replay's sample — a greedy descent from the
/// seed, every candidate of every state on the way — and holds each
/// child's carried peak and plan to a from-scratch profile and plan of
/// the child's own graph and order. Returns the number of children
/// checked.
fn assert_descent_carries_own_profile(w: Workload, scale: f64, mem: MemObjective) -> usize {
    let what = format!("{} @ {scale}, {mem}", w.label());
    let ctx = EvalContext { mem_objective: mem, ..EvalContext::default() };
    let mut state = MState::initial(w.build(scale).graph, &ctx);
    let lat_limit = state.eval.latency * 1.25;
    let mut visited = BTreeSet::from([graph_hash(&state.eval.graph)]);
    let mut checked = 0;
    for depth in 0..2 {
        if state.tree_stale {
            state.analyze(4);
        }
        let mut transforms = rules::generate(&state, &RuleConfig::default());
        transforms.sort_by_key(Transform::sort_key);
        let mut best: Option<((bool, u64), u64, MState)> = None;
        for (i, t) in transforms.iter().enumerate() {
            let Some(child) =
                rules::apply(&state, t).ok().and_then(|a| MState::from_applied(a, &state, &ctx).ok())
            else {
                continue;
            };
            let eval = &child.eval;
            let profile = memory_profile_checked(&eval.graph, &eval.order).expect("child order profiles");
            let at = format!("{what}: depth {depth}, candidate {i} ({t})");
            assert_eq!(eval.peak_bytes, profile.peak_bytes, "{at}: peak");
            let plan = (mem == MemObjective::Planned)
                .then(|| memory_plan(&eval.graph, &eval.order).expect("child order plans"));
            assert!(eval.plan == plan, "{at}: plan");
            checked += 1;
            let rank = (eval.latency > lat_limit, eval.objective_peak());
            let hash = graph_hash(&eval.graph);
            if !visited.contains(&hash) && best.as_ref().is_none_or(|(r, _, _)| rank < *r) {
                best = Some((rank, hash, child));
            }
        }
        let Some((_, hash, child)) = best else { break };
        visited.insert(hash);
        state = child;
    }
    checked
}

#[test]
fn every_replayed_child_carries_its_own_orders_profile_and_plan() {
    let cases = std::iter::once((Workload::BertBase, 0.25)).chain(Workload::all().map(|w| (w, 0.1)));
    for (w, scale) in cases {
        for mem in [MemObjective::Liveness, MemObjective::Planned] {
            let checked = assert_descent_carries_own_profile(w, scale, mem);
            assert!(checked > 20, "{} @ {scale}, {mem}: only {checked} children", w.label());
        }
    }
}
